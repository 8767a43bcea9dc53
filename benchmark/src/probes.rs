//! Per-layer probes: the same battery on every workload's first shard,
//! timing each layer's public functions directly and reading the stats
//! structs they return. Layer = module. Comparisons of two configurations
//! (kernels, thread counts, table or none, before or after a feed) run
//! interleaved in blocks over the same inputs and report the median of the
//! per-op ratios.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pt_core::{Dur, Profile, StationId};
use pt_feed::FeedDecoder;
use pt_graph::TdGraph;
use pt_heap::QuaternaryHeap;
use pt_spcs::{
    ConcurrentNetwork, DistanceTable, KernelMode, Network, PartitionStrategy, ProfileCache,
    ProfileEngine, QueryKind, QueryStats, S2sEngine, ShardId, ShardedService, TransferSelection,
};
use pt_timetable::{DelayEvent, Routes};

use crate::gen::Inputs;
use crate::report::Report;
use crate::serve::load_threads;
use crate::stats::{balance, median, paired_ratio, percentile};
use crate::trace::Tracer;

/// Sources of the paired kernel probes and pairs of the s2s probe.
const KERNEL_SOURCES: usize = 30;
const S2S_PAIRS: usize = 100;
/// Ops per block when two configurations are interleaved.
const BLOCK: usize = 10;
/// Feeds replayed on the private mirrors, and events in each.
const MIRROR_FEEDS: usize = 40;
const MIRROR_FEED_EVENTS: usize = 8;
/// Feeds followed by a table refresh (a refresh costs up to a table build).
const REFRESH_FEEDS: usize = 3;

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_nanos() as f64)
}

/// The first shard's events from the start of the day, as `MIRROR_FEEDS`
/// feeds of at most `MIRROR_FEED_EVENTS` events: small enough that some
/// leave every touched route FIFO (the repatch path) and some do not (the
/// refit path), on every workload.
fn mirror_feeds(inputs: &Inputs) -> Vec<Vec<DelayEvent>> {
    let events: Vec<DelayEvent> = inputs
        .batches
        .iter()
        .flat_map(|b| b.events.iter().filter(|e| e.0 == ShardId(0)).map(|e| e.1))
        .take(MIRROR_FEEDS * MIRROR_FEED_EVENTS)
        .collect();
    events.chunks(MIRROR_FEED_EVENTS).map(<[DelayEvent]>::to_vec).collect()
}

/// Runs the battery and adds one common per-layer metric per probe.
/// Mirror work is recorded as `mirror.*` spans (no parent: it happens on
/// the benchmark's private copies, outside any request or feed).
pub fn run(inputs: &Inputs, report: &mut Report, tr: &mut Tracer) -> u64 {
    let tt = &inputs.timetables[0];
    let period = tt.period();
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x9_0BE5);
    let stations = tt.num_stations() as u32;

    // network: build, pin.
    let builds: Vec<f64> = (0..3).map(|_| timed(|| Network::new(tt.clone())).1 / 1e9).collect();
    report.layer("network.build_s", median(&builds), builds.len());
    let net = Network::new(tt.clone());

    let mut sources: Vec<StationId> = (0..stations).map(StationId).collect();
    for i in (1..sources.len()).rev() {
        sources.swap(i, rng.gen_range(0..=i));
    }
    sources.truncate(KERNEL_SOURCES);

    // kernel, parallel: one source list through four engines, block by block.
    let auto = ProfileEngine::new();
    let scalar = ProfileEngine::new().kernel(KernelMode::Scalar);
    let soa = ProfileEngine::new().kernel(KernelMode::Soa);
    let two = ProfileEngine::new().threads(2);
    let engines = [&auto, &scalar, &soa, &two];
    for e in engines {
        for &s in &sources {
            e.one_to_all(&net, s);
        }
    }
    let grown_before: u64 = engines.iter().map(|e| e.workspace_grow_events()).sum();
    let mut ns: [Vec<f64>; 4] = Default::default();
    let mut stats = [QueryStats::default(); 4];
    let mut thread_balance = Vec::new();
    for block in sources.chunks(BLOCK) {
        for (k, e) in engines.iter().enumerate() {
            for &s in block {
                let (r, t) = timed(|| e.one_to_all_with_stats(&net, s));
                ns[k].push(t);
                stats[k] += r.stats;
                if k == 3 {
                    let settled: Vec<f64> = r.thread_settled.iter().map(|&x| x as f64).collect();
                    thread_balance.push(balance(&settled));
                }
            }
        }
    }
    let n = sources.len();
    let per_query = |x: u64| x as f64 / n as f64;
    let search_ns: f64 = ns[0].iter().sum::<f64>() - stats[0].merge_ns as f64;
    report.layer("kernel.settled_per_query", per_query(stats[0].settled), n);
    report.layer("kernel.relaxed_per_query", per_query(stats[0].relaxed), n);
    report.layer(
        "kernel.self_pruned_share",
        stats[0].self_pruned as f64 / stats[0].settled.max(1) as f64,
        n,
    );
    report.layer("kernel.bucket_phases_per_query", per_query(stats[2].bucket_phases), n);
    report.layer("kernel.ns_per_settled", search_ns / stats[0].settled.max(1) as f64, n);
    report.layer("kernel.soa_over_scalar", paired_ratio(&ns[1], &ns[2]), n);
    report.layer("parallel.merge_ms_per_query", per_query(stats[3].merge_ns) / 1e6, n);
    report.layer("parallel.merge_share", stats[3].merge_ns as f64 / ns[3].iter().sum::<f64>(), n);
    report.layer("parallel.thread_balance", median(&thread_balance), n);
    report.layer("parallel.speedup_2t", paired_ratio(&ns[3], &ns[0]), n);
    let grown: u64 = engines.iter().map(|e| e.workspace_grow_events()).sum::<u64>() - grown_before;

    // partition: the default strategy on each source's conn(S).
    let strategy = PartitionStrategy::default();
    let mut part_us = Vec::new();
    let mut class_balance = Vec::new();
    for &s in &sources {
        let (ranges, t) = timed(|| strategy.partition(tt.conn(s), 2, period));
        part_us.push(t / 1e3);
        let sizes: Vec<f64> = ranges.iter().map(|r| r.len() as f64).collect();
        class_balance.push(balance(&sizes));
    }
    report.layer("partition.partition_us", median(&part_us), n);
    report.layer("partition.class_balance", median(&class_balance), n);

    // heap: the 4-ary heap the scalar kernel settles through.
    const SLOTS: usize = 4096;
    const ROUNDS: usize = 50;
    let keys: Vec<u64> = (0..SLOTS).map(|_| rng.gen_range(0..86_400u64)).collect();
    let mut heap = QuaternaryHeap::new(SLOTS);
    let (_, t) = timed(|| {
        for _ in 0..ROUNDS {
            for (slot, &key) in keys.iter().enumerate() {
                heap.push_or_decrease(slot, key);
            }
            while let Some(top) = heap.pop() {
                std::hint::black_box(top);
            }
        }
    });
    report.layer("heap.push_pop_ns", t / (SLOTS * ROUNDS) as f64, SLOTS * ROUNDS);

    // profile: reduction, merge and link on profiles a real search produced.
    let recorded = auto.one_to_all(&net, sources[0]);
    let profiles: Vec<&Profile> = recorded.profiles().iter().filter(|p| !p.is_empty()).collect();
    let points: usize = profiles.iter().map(|p| p.len()).sum();
    let (_, t) = timed(|| {
        for p in &profiles {
            std::hint::black_box(Profile::from_unreduced(p.points().to_vec(), period));
        }
    });
    report.layer("profile.reduce_ns_per_point", t / points.max(1) as f64, points);
    let pairs: Vec<(&Profile, &Profile)> = profiles.windows(2).map(|w| (w[0], w[1])).collect();
    let pair_points: usize = pairs.iter().map(|(a, b)| a.len() + b.len()).sum();
    let (_, t) = timed(|| {
        for (a, b) in &pairs {
            let mut merged = (*a).clone();
            std::hint::black_box(merged.merge(b, period));
        }
    });
    report.layer("profile.merge_ns_per_point", t / pair_points.max(1) as f64, pair_points);
    let (_, t) = timed(|| {
        for (a, b) in &pairs {
            std::hint::black_box(a.link_profile(b, Dur::minutes(2), period));
        }
    });
    report.layer("profile.link_ns_per_point", t / pair_points.max(1) as f64, pair_points);

    // distance_table, s2s: build a table, ask the same pairs with and without.
    let (table, t) = timed(|| DistanceTable::build(&net, &TransferSelection::Fraction(0.05)));
    report.layer("distance_table.build_s", t / 1e9, 1);
    report.layer("distance_table.rows", table.len() as f64, 1);
    report.layer("distance_table.size_mib", table.size_mib(), 1);
    let s2s_pairs: Vec<(StationId, StationId)> = (0..S2S_PAIRS)
        .map(|_| {
            let s = rng.gen_range(0..stations);
            let t = (s + rng.gen_range(1..stations)) % stations;
            (StationId(s), StationId(t))
        })
        .collect();
    let with = S2sEngine::new().with_table(&table);
    let without = S2sEngine::new();
    for &(s, t) in &s2s_pairs[..2] {
        with.query(&net, s, t);
        without.query(&net, s, t);
    }
    let (mut with_ns, mut without_ns) = (Vec::new(), Vec::new());
    let mut s2s = QueryStats::default();
    let mut kinds = [0usize; 4];
    for block in s2s_pairs.chunks(BLOCK) {
        for &(s, t) in block {
            let (r, ns) = timed(|| with.query(&net, s, t));
            with_ns.push(ns);
            s2s += r.stats;
            match r.kind {
                QueryKind::TableDirect => kinds[0] += 1,
                QueryKind::Local => kinds[1] += 1,
                QueryKind::Global => kinds[2] += 1,
                QueryKind::TargetTransfer => kinds[3] += 1,
                QueryKind::Plain | QueryKind::Gateway => {}
            }
        }
        for &(s, t) in block {
            without_ns.push(timed(|| without.query(&net, s, t)).1);
        }
    }
    let share = |k: usize| k as f64 / S2S_PAIRS as f64;
    report.layer("s2s.settled_per_query", s2s.settled as f64 / S2S_PAIRS as f64, S2S_PAIRS);
    report.layer(
        "s2s.stop_pruned_share",
        s2s.stop_pruned as f64 / s2s.settled.max(1) as f64,
        S2S_PAIRS,
    );
    report.layer(
        "s2s.table_pruned_share",
        s2s.table_pruned as f64 / s2s.settled.max(1) as f64,
        S2S_PAIRS,
    );
    report.layer("s2s.kind_direct_share", share(kinds[0]), S2S_PAIRS);
    report.layer("s2s.kind_local_share", share(kinds[1]), S2S_PAIRS);
    report.layer("s2s.kind_global_share", share(kinds[2]), S2S_PAIRS);
    report.layer("s2s.kind_target_share", share(kinds[3]), S2S_PAIRS);
    report.layer("s2s.table_speedup", paired_ratio(&with_ns, &without_ns), S2S_PAIRS);
    drop(with);

    let feeds = mirror_feeds(inputs);

    // cache: the LRU called directly.
    let cache = ProfileCache::new(64);
    let (_, t) = timed(|| {
        for s in 0..64u32 {
            cache.insert(StationId(s), 1, 1, Arc::clone(&recorded));
        }
    });
    report.layer("cache.insert_ns", t / 64.0, 64);
    let (_, t) = timed(|| {
        for _ in 0..100 {
            for s in 0..64u32 {
                std::hint::black_box(cache.get(StationId(s), 1, 1));
            }
        }
    });
    report.layer("cache.get_ns", t / 6400.0, 6400);

    // network: snapshot pins, then the day's first feeds through a private
    // ConcurrentNetwork — apply, publish, what a publish copies.
    const PINS: usize = 100_000;
    let cnet = ConcurrentNetwork::new(net.clone());
    let pin = || {
        for _ in 0..PINS {
            std::hint::black_box(cnet.snapshot());
        }
    };
    report.layer("network.pin_ns", timed(pin).1 / PINS as f64, PINS);
    let pinners = load_threads();
    let (_, t) = timed(|| {
        std::thread::scope(|scope| {
            for _ in 0..pinners {
                scope.spawn(pin);
            }
        })
    });
    report.layer("network.pin_2t_ns", t / PINS as f64, PINS * pinners);

    let before_feed: Vec<f64> =
        sources.iter().map(|&s| timed(|| auto.one_to_all(&cnet.snapshot(), s)).1).collect();
    let mut prev = cnet.snapshot();
    let (mut apply_ms, mut publish_us) = (Vec::new(), Vec::new());
    let (mut buckets, mut buckets_copied, mut routes, mut routes_copied) = (0, 0, 0, 0);
    for events in &feeds {
        let start = tr.now();
        let (outcome, t) = timed(|| cnet.apply_feed(events));
        apply_ms.push(t / 1e6);
        let Some(snap) = outcome.published else { continue };
        let end = start + t as u64;
        tr.record("mirror.network.publish", None, 0, end - outcome.publish_ns.min(t as u64), end);
        publish_us.push(outcome.publish_ns as f64 / 1e3);
        buckets += snap.num_stations();
        buckets_copied +=
            snap.num_stations() - snap.timetable().shared_buckets_with(prev.timetable());
        routes += snap.routes().len();
        routes_copied +=
            snap.routes().len().saturating_sub(snap.routes().shared_routes_with(prev.routes()));
        prev = snap;
    }
    report.layer("network.apply_feed_ms", median(&apply_ms), apply_ms.len());
    report.layer("network.publish_us_p50", median(&publish_us), publish_us.len());
    report.layer("network.publish_us_p95", percentile(&publish_us, 0.95).0, publish_us.len());
    report.layer(
        "network.buckets_copied_share",
        buckets_copied as f64 / buckets.max(1) as f64,
        feeds.len(),
    );
    report.layer(
        "network.routes_copied_share",
        routes_copied as f64 / routes.max(1) as f64,
        feeds.len(),
    );
    let after_feed: Vec<f64> =
        sources.iter().map(|&s| timed(|| auto.one_to_all(&cnet.snapshot(), s)).1).collect();
    report.layer("network.post_feed_query_ratio", paired_ratio(&before_feed, &after_feed), n);

    // timetable, routes, graph: the same feeds through private copies of
    // the three structures `Network::apply_feed` keeps in step.
    let mut tt_m = tt.clone();
    let mut routes_m = Routes::partition(&tt_m);
    let graph_ms: Vec<f64> =
        (0..3).map(|_| timed(|| TdGraph::build(&tt_m, &routes_m)).1 / 1e6).collect();
    report.layer("graph.build_ms", median(&graph_ms), graph_ms.len());
    let mut graph_m = TdGraph::build(&tt_m, &routes_m);
    let routes_before = routes_m.len();
    let (mut patch_us, mut repatch_us, mut graph_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut changed, mut refits) = (0usize, 0usize);
    for events in &feeds {
        let start = tr.now();
        let (patch, t) = timed(|| tt_m.patch_feed(events));
        tr.record("mirror.timetable.patch_feed", None, 0, start, start + t as u64);
        patch_us.push(t / 1e3);
        if !patch.changed {
            continue;
        }
        changed += 1;
        let start = tr.now();
        let (touched, t) = timed(|| routes_m.repatch_feed(&tt_m, &patch));
        tr.record("mirror.routes.repatch_feed", None, 0, start, start + t as u64);
        repatch_us.push(t / 1e3);
        let offending: Vec<_> =
            touched.iter().copied().filter(|&r| !routes_m.route_is_fifo(&tt_m, r)).collect();
        if offending.is_empty() {
            let start = tr.now();
            let (_, t) =
                timed(|| graph_m.repatch_routes(&tt_m, &routes_m, &touched, &patch.remapped));
            tr.record("mirror.graph.repatch_routes", None, 0, start, start + t as u64);
            graph_us.push(t / 1e3);
        } else {
            refits += 1;
            tr.span("mirror.routes.refit", None, 0, || routes_m.refit(&tt_m, &offending));
            graph_m = tr.span("mirror.graph.build", None, 0, || TdGraph::build(&tt_m, &routes_m));
        }
    }
    report.layer("timetable.patch_feed_us", median(&patch_us), patch_us.len());
    report.layer("routes.repatch_us", median(&repatch_us), repatch_us.len());
    report.layer("routes.refit_share", refits as f64 / changed.max(1) as f64, changed);
    report.layer(
        "routes.count_growth",
        routes_m.len() as f64 / routes_before.max(1) as f64,
        changed,
    );
    report.layer("graph.repatch_us", median(&graph_us), graph_us.len());

    // shard: the directory lookup, and the router's cost over calling the
    // engine on the pinned snapshot oneself.
    let svc = ShardedService::new(inputs.timetables.iter().cloned().map(Network::new).collect());
    let total = svc.num_stations() as u32;
    let ids: Vec<StationId> = (0..4096).map(|_| StationId(rng.gen_range(0..total))).collect();
    let (_, t) = timed(|| {
        for _ in 0..25 {
            for &id in &ids {
                std::hint::black_box(svc.locate(id).ok());
            }
        }
    });
    report.layer("shard.locate_ns", t / (25 * ids.len()) as f64, 25 * ids.len());
    // Both sides answer from a warm cache, so the difference is what the
    // router adds (directory lookup, snapshot pin, wrapping) and nothing of
    // the search it fronts.
    let cached = ShardedService::builder()
        .cache(KERNEL_SOURCES)
        .build(inputs.timetables.iter().cloned().map(Network::new).collect());
    let direct = ProfileEngine::new().with_cache(KERNEL_SOURCES);
    let snap = cached.network(ShardId(0)).expect("shard 0 exists");
    for &s in &sources {
        let _ = cached.one_to_all(s);
        direct.one_to_all(snap.network(), s);
    }
    const HITS: usize = 200;
    let (_, routed) = timed(|| {
        for _ in 0..HITS {
            for &s in &sources {
                std::hint::black_box(cached.one_to_all(s).ok());
            }
        }
    });
    let (_, unrouted) = timed(|| {
        for _ in 0..HITS {
            for &s in &sources {
                std::hint::black_box(direct.one_to_all(snap.network(), s));
            }
        }
    });
    report.layer(
        "shard.router_overhead_us",
        (routed - unrouted) / (HITS * n) as f64 / 1e3,
        HITS * n,
    );

    // wire: the decoder on the day's own lines, by syntax.
    let decoder =
        FeedDecoder::with_roster(inputs.timetables.iter().map(|t| t.num_trains() as u32).collect());
    let lines: Vec<&String> = inputs.batches.iter().flat_map(|b| &b.lines).take(20_000).collect();
    for (name, json) in
        [("wire.decode_csv_ns_per_line", false), ("wire.decode_json_ns_per_line", true)]
    {
        let of_kind: Vec<&&String> = lines.iter().filter(|l| l.starts_with('{') == json).collect();
        let (_, t) = timed(|| {
            for line in &of_kind {
                std::hint::black_box(decoder.decode_line(line).ok());
            }
        });
        report.layer(name, t / of_kind.len().max(1) as f64, of_kind.len());
    }
    // distance_table refresh: the probe network itself (a table follows
    // only the network instance it was built for) and its table follow the
    // first feeds of the day. Last, because it spends the network.
    let (mut fed, mut table) = (net, table);
    let (mut apply_ns, mut refresh_ns, mut rows) = (0.0, Vec::new(), 0usize);
    for events in feeds.iter().take(REFRESH_FEEDS) {
        apply_ns += timed(|| fed.apply_feed(events)).1;
        let start = tr.now();
        let (refreshed, t) = timed(|| table.refresh(&fed));
        tr.record("mirror.distance_table.refresh", None, 0, start, start + t as u64);
        refresh_ns.push(t);
        rows += refreshed.unwrap_or(0);
    }
    let refreshes = refresh_ns.len().max(1);
    let refresh_total: f64 = refresh_ns.iter().sum();
    report.layer(
        "distance_table.refresh_ms_per_feed",
        refresh_total / refreshes as f64 / 1e6,
        refreshes,
    );
    report.layer(
        "distance_table.rows_refreshed_per_feed",
        rows as f64 / refreshes as f64,
        refreshes,
    );
    report.layer(
        "distance_table.refresh_share",
        refresh_total / (refresh_total + apply_ns),
        refreshes,
    );

    grown
}
