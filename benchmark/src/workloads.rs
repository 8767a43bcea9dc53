//! The four workloads. Each builds its service from the generated
//! timetables (`setup_s`), runs its fixed op lists in sections, checks a
//! sample of what it computed against the oracles, and reports. The
//! untraced run measures every end-to-end metric; the traced run repeats
//! the first half of the op lists with spans around each public call and
//! runs the per-layer probes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use pt_core::StationId;
use pt_spcs::{BorderSpec, DistanceTable, Network, ShardedService, TransferSelection};
use pt_timetable::Timetable;

use crate::feed::{audit, feed_blocks, Writer};
use crate::gen::{
    warm, Class, Inputs, Kind, ReadOp, Request, BATCH_INTERVAL, LATENCY_LIMIT, PAIR_BLOCK,
    READ_INTERVAL,
};
use crate::load::{backlog_end, open_loop, Sample, Wall};
use crate::oracle::{check_fed, check_o2a, check_s2s, check_stitched, Verdict};
use crate::report::Report;
use crate::serve::{load_threads, nproc, run_timed, Clients, Direct, Nets, Parts, Server};
use crate::stats::{block_median_rate, median, percentile};
use crate::trace::{self, Tracer};
use crate::{probes, spec};

/// Per-shard cache capacities and table selection of `city-live`.
const O2A_CACHE: usize = 64;
const S2S_CACHE: usize = 256;
const CITY_TABLE: f64 = 0.05;
const RAIL_TABLE: f64 = 0.05;
/// Rounds a sweep of a closed-loop workload spreads its sections over.
const ROUNDS: usize = 5;
/// Times the closed-loop workloads run every op; each keeps its fastest.
const SWEEPS: usize = 4;
/// Live passes of `city-live`; every request and batch keeps its fastest.
const PASSES: usize = 2;
/// Live requests per block behind `qps` (reader capacity).
const LIVE_BLOCK: usize = 10;
/// Seconds per extra rate of the traced arrival-rate sweep.
const SWEEP_SECONDS: f64 = 2.0;

pub struct RunConfig {
    pub kind: Kind,
    pub seed: u64,
    /// Op-list scale: `--seconds / RUN_SECONDS` (0.1 under `--smoke`).
    pub scale: f64,
    pub traced: bool,
}

pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    let t0 = Instant::now();
    let inputs = Inputs::generate(cfg.kind, cfg.seed, cfg.scale);
    report.info("seed", cfg.seed);
    report.info("fingerprint", format!("{:016x}", inputs.fingerprint));
    report.info("shape", format!("{:016x}", inputs.shape));
    report.info("gen_s", t0.elapsed().as_secs_f64());
    report.info("nproc", nproc());
    report.info("load_threads", load_threads());
    report.info("scale", cfg.scale);
    report.info("timed_reads", inputs.timed_reads().len());
    report.info("timed_batches", inputs.sizes.batches);
    report.info("events", inputs.valid_events());
    report.info("events_per_batch", inputs.sizes.events_per_batch);
    for (i, tt) in inputs.timetables.iter().enumerate() {
        let s = tt.stats();
        report.info(
            &format!("shard{i}"),
            format!("{} stations {} connections", s.stations, s.connections),
        );
    }
    let pool_before = rayon::global().stats();
    let measured = Instant::now();
    match cfg.kind {
        Kind::MetroProfile | Kind::RailS2s | Kind::FeedReplay => {
            closed_loop(&inputs, cfg.traced, &mut report)
        }
        Kind::CityLive => city_live(&inputs, cfg.traced, &mut report),
    }
    report.info("measured_s", measured.elapsed().as_secs_f64());
    if cfg.traced {
        let pool = rayon::global().stats();
        let executed = pool.executed - pool_before.executed;
        report.layer(
            "rayon.stolen_share",
            (pool.stolen - pool_before.stolen) as f64 / executed.max(1) as f64,
            executed as usize,
        );
        report.layer("peak_rss_mib", peak_rss_mib(), 1);
    } else {
        report.detail("peak_rss_mib", peak_rss_mib(), "MiB", 1, None);
    }
    report
}

/// VmHWM of this process.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Builds the service `builds` times from fresh copies of the generated
/// timetables, keeping the last; returns it with the build times.
fn setup<T>(
    inputs: &Inputs,
    builds: usize,
    build: impl Fn(Vec<Timetable>) -> T,
) -> (Option<T>, Vec<f64>) {
    let mut times = Vec::with_capacity(builds);
    let mut kept = None;
    for _ in 0..builds {
        let timetables = inputs.timetables.clone();
        let t0 = Instant::now();
        let built = build(timetables);
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(built);
    }
    (kept, times)
}

fn report_latencies(report: &mut Report, one_ms: &[f64]) {
    report.end_to_end("latency_p50_ms", median(one_ms), one_ms.len(), Some(0.5));
    let (p95, q) = percentile(one_ms, 0.95);
    report.demoted("latency_p95_ms", p95, Some(q), one_ms.len(), false);
}

fn report_feed(report: &mut Report, busy_s: &[f64], visible_ms: &[f64], events_per_batch: usize) {
    let blocks = feed_blocks(busy_s, events_per_batch);
    report.end_to_end("feed_events_per_s", block_median_rate(&blocks), blocks.len(), None);
    report.end_to_end("feed_visible_p50_ms", median(visible_ms), visible_ms.len(), Some(0.5));
    let (p95, q) = percentile(visible_ms, 0.95);
    report.demoted("feed_visible_p95_ms", p95, Some(q), visible_ms.len(), false);
}

fn ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

fn count_oracle(report: &mut Report, v: Verdict) {
    report.attempted += v.checks as u64;
    report.failed += v.mismatches.len() as u64;
    report.incorrect.extend(v.mismatches);
}

fn count_errors(report: &mut Report, what: &str, attempted: usize, errors: usize) {
    report.attempted += attempted as u64;
    report.failed += errors as u64;
    if errors > 0 {
        report.incorrect.push(format!("{errors} of {attempted} {what} failed"));
    }
}

/// The traced halves: the same first half of the op lists once untraced
/// (on `plain`) and once with spans (on `spanned`); adds every per-layer
/// metric that comes from the workload's own ops rather than from a probe.
struct TracedHalves {
    tracer: Tracer,
    untraced_s: f64,
    traced_s: f64,
}

fn traced_feed_half(
    plain: &ShardedService,
    spanned: &ShardedService,
    inputs: &Inputs,
    halves: &mut TracedHalves,
    report: &mut Report,
    origin: Instant,
) {
    let half = warm(inputs.sizes.batches) + inputs.sizes.batches / 2;
    let mut writer = Writer::new(plain, inputs, None);
    for _ in 0..half {
        writer.step();
    }
    halves.untraced_s += writer.busy_s.iter().sum::<f64>();
    let visible = ms(&writer.busy_s[warm(inputs.sizes.batches)..]);
    let (p95, q) = percentile(&visible, 0.95);
    report.demoted("feed_visible_p95_ms", p95, Some(q), visible.len(), true);
    let (_, failures_plain, _) = writer.finish();
    let mut writer = Writer::new(spanned, inputs, Some(origin));
    for _ in 0..half {
        writer.step();
    }
    halves.traced_s += writer.busy_s.iter().sum::<f64>();
    let busy = writer.busy_s.clone();
    let (stats, failures, tracer) = writer.finish();
    halves.tracer.absorb(tracer.expect("a traced writer has a tracer"));
    let wrong = audit(&stats, inputs, half);
    count_errors(report, "feed batches", 2 * half, failures_plain + failures + wrong);
    report_driver(report, &stats, &busy);
}

fn report_driver(report: &mut Report, stats: &pt_feed::FeedStats, busy_s: &[f64]) {
    let batches = stats.batches_applied as usize;
    report.layer("wire.quarantined_lines", stats.quarantine.total as f64, stats.lines as usize);
    report.layer("driver.batches", batches as f64, batches);
    report.layer(
        "driver.events_per_batch",
        stats.events_applied as f64 / batches.max(1) as f64,
        batches,
    );
    report.layer("driver.coalesced_dropped", stats.coalesced_dropped as f64, batches);
    report.layer("driver.forced_flushes", stats.forced_flushes as f64, batches);
    report.layer("driver.max_queue_len", stats.max_queue_len as f64, batches);
    let busy: f64 = busy_s.iter().sum();
    report.layer("driver.apply_share", stats.apply_ns as f64 / 1e9 / busy, batches);
    // Events per second of the last quarter over the first: accumulated
    // refit splits changing the workload under the clock would show here.
    let quarter = (busy_s.len() / 4).max(1);
    let first: f64 = busy_s[..quarter].iter().sum();
    let last: f64 = busy_s[busy_s.len() - quarter..].iter().sum();
    report.layer("driver.drift_ratio", first / last, quarter);
}

fn traced_read_half(
    server: &Server,
    inputs: &Inputs,
    halves: &mut TracedHalves,
    report: &mut Report,
) {
    let reads = inputs.timed_reads();
    let half = &reads[..reads.len() / 2];
    let mut plain_ms = Vec::with_capacity(half.len());
    let mut errors = run_timed(server, half, 0, &mut plain_ms);
    halves.untraced_s += plain_ms.iter().sum::<f64>() / 1e3;
    let (p95, q) = percentile(&plain_ms, 0.95);
    report.demoted("latency_p95_ms", p95, Some(q), plain_ms.len(), true);
    let mut two_ms = Vec::with_capacity(half.len());
    errors += run_timed(server, half, 1, &mut two_ms);
    report.demoted("latency_2t_p50_ms", median(&two_ms), Some(0.5), two_ms.len(), true);

    // Two clients sharing the engine, in blocks: the one section that needs
    // both of the host's CPUs at once.
    let sizes = inputs.sizes;
    let (warm_c, reads_c) =
        inputs.reads_c.split_at(inputs.reads_c.len() - sizes.c_blocks * sizes.c_block_ops);
    let next = AtomicUsize::new(0);
    let (blocks, failed) = std::thread::scope(|scope| {
        let clients = Clients::spawn(scope, &next, load_threads());
        clients.run(server, warm_c, warm_c.len());
        clients.run(server, reads_c, sizes.c_block_ops)
    });
    report.demoted("qps", block_median_rate(&blocks), None, blocks.len(), true);
    errors += failed;

    let (mut hits_o2a, mut hits_s2s, mut n_o2a, mut n_s2s, mut evictions) = (0, 0, 0, 0, 0);
    let t0 = Instant::now();
    for (i, op) in half.iter().enumerate() {
        match server.serve_traced(op, i as u32, &mut halves.tracer) {
            Ok(stats) => {
                let hit = stats.cache_hits;
                evictions += stats.cache_evictions;
                match op.req {
                    Request::O2a(_) => (hits_o2a, n_o2a) = (hits_o2a + hit, n_o2a + 1),
                    Request::S2s(..) => (hits_s2s, n_s2s) = (hits_s2s + hit, n_s2s + 1),
                }
            }
            Err(_) => errors += 1,
        }
    }
    halves.traced_s += t0.elapsed().as_secs_f64();
    count_errors(report, "traced requests", 3 * half.len() + reads_c.len(), errors);
    report.layer("cache.o2a_hit_rate", hits_o2a as f64 / n_o2a.max(1) as f64, n_o2a);
    report.layer("cache.s2s_hit_rate", hits_s2s as f64 / n_s2s.max(1) as f64, n_s2s);
    report.layer("cache.evictions", evictions as f64, half.len());
}

/// Everything the traced run reports from its spans, then the probes.
fn finish_traced(
    inputs: &Inputs,
    mut halves: TracedHalves,
    grown_by_workload: u64,
    gateway: (usize, f64),
    report: &mut Report,
) {
    report.layer(
        "trace.coverage",
        trace::coverage(&halves.tracer.spans),
        halves.tracer.spans.len(),
    );
    report.layer(
        "trace.overhead_share",
        (halves.traced_s - halves.untraced_s) / halves.untraced_s,
        halves.tracer.spans.len(),
    );
    report.layer("gateway.groups", gateway.0 as f64, 1);
    report.layer("gateway.border_rows_refreshed_per_feed", gateway.1, inputs.sizes.batches / 2);
    let grown_by_probes = probes::run(inputs, report, &mut halves.tracer);
    report.layer(
        "workspace.grow_events_after_warmup",
        (grown_by_workload + grown_by_probes) as f64,
        1,
    );
    let own = trace::self_ms(&halves.tracer.spans);
    let count = |name: &str| halves.tracer.spans.iter().filter(|s| s.name == name).count();
    for m in spec::PER_LAYER.iter().filter(|m| m.name.starts_with("trace.self_ms.")) {
        let span = &m.name["trace.self_ms.".len()..];
        report.layer(m.name, own.get(span).copied().unwrap_or(0.0), count(span));
    }
    for (span, &mean) in &own {
        let name = format!("trace.self_ms.{span}");
        if !spec::PER_LAYER.iter().any(|m| m.name == name) {
            report.detail(&name, mean, "ms", count(span), None);
        }
    }
    report.layer("trace.spans", halves.tracer.spans.len() as f64, 1);
    let dir = std::env::var("BC_BENCH_OUT").unwrap_or_else(|_| "benchmark/out".to_string());
    let path = format!("{dir}/trace-{}-{}.json", inputs.kind.name(), inputs.seed);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_json(&halves.tracer.spans).render()));
    match written {
        Ok(()) => report.info("trace_file", path),
        Err(e) => report.info("trace_file", format!("not written: {e}")),
    }
}

/// What the closed-loop workloads build: `metro-profile` and `rail-s2s`
/// read one immutable network through engines called directly and write
/// to a plain one-shard service over a copy of it (a tabled service would
/// refresh every row on every feed); `feed-replay` reads what its
/// two-shard service has published.
struct Built {
    net: Option<Network>,
    table: Option<DistanceTable>,
    service: ShardedService,
}

fn build_closed(kind: Kind, timetables: Vec<Timetable>) -> Built {
    let mut nets: Vec<Network> = timetables.into_iter().map(Network::new).collect();
    let service = ShardedService::new(nets.clone());
    match kind {
        Kind::FeedReplay => Built { net: None, table: None, service },
        _ => {
            let net = nets.remove(0);
            let table = (kind == Kind::RailS2s)
                .then(|| DistanceTable::build(&net, &TransferSelection::Fraction(RAIL_TABLE)));
            Built { net: Some(net), table, service }
        }
    }
}

/// A second service over copies of a pristine service's networks: the
/// second sweep's, or the traced run's spanned half. Benchmark apparatus,
/// so it is built outside `setup_s`.
fn twin_of(service: &ShardedService) -> ShardedService {
    let nets = service
        .shard_ids()
        .map(|sh| service.network(sh).expect("own shard ids").network().clone())
        .collect();
    ShardedService::new(nets)
}

/// The slice of `n` items that slot `i` of `slots` takes.
fn share(n: usize, i: usize, slots: usize) -> std::ops::Range<usize> {
    i * n / slots..(i + 1) * n / slots
}

/// `metro-profile`, `rail-s2s` and `feed-replay`. The untraced run makes
/// [`SWEEPS`] sweeps over the same op lists, each in [`ROUNDS`] rounds — a
/// share of the builds for `setup_s`, of the feed batches and of the read
/// requests, everything on one thread. So every metric samples the whole
/// run, a burst from a neighbour cannot land on one section alone, and an
/// op it did land on has three more chances, each a quarter of a run later
/// (sweep `s` feeds service `s`; every request and batch keeps its fastest
/// time: a neighbour can only add time).
fn closed_loop(inputs: &Inputs, traced: bool, report: &mut Report) {
    let kind = inputs.kind;
    let sizes = inputs.sizes;
    let (built, mut build_s) = setup(inputs, 1, |tts| build_closed(kind, tts));
    let built = built.expect("one build was asked for");
    // One service per sweep (the traced run: one per half), all copies of
    // the pristine one.
    let copies = if traced { 1 } else { SWEEPS - 1 };
    let twins: Vec<ShardedService> = (0..copies).map(|_| twin_of(&built.service)).collect();
    let services: Vec<&ShardedService> = std::iter::once(&built.service).chain(&twins).collect();
    let spanned = usize::from(traced);
    // One server per service where reads follow the feed, else one for all.
    let servers: Vec<Server> = match &built.net {
        Some(net) => {
            vec![Server::Direct(Direct::new(Nets::Fixed(net), built.table.as_ref()))]
        }
        None => services
            .iter()
            .map(|svc| Server::Direct(Direct::new(Nets::Published(svc), None)))
            .collect(),
    };
    let reads = inputs.timed_reads();
    let n_warm = inputs.reads.len() - reads.len();

    if traced {
        let server = &servers[spanned % servers.len()];
        let origin = Instant::now();
        let mut halves =
            TracedHalves { tracer: Tracer::new(origin), untraced_s: 0.0, traced_s: 0.0 };
        traced_feed_half(services[0], services[1], inputs, &mut halves, report, origin);
        warm_up(server, &inputs.reads[..n_warm], true);
        let grown = server.grow_events();
        traced_read_half(server, inputs, &mut halves, report);
        let grown = server.grow_events() - grown;
        finish_traced(inputs, halves, grown, (0, 0.0), report);
    } else {
        let warm_batches = warm(sizes.batches);
        let (mut one_ms, mut busy): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
        let mut errors = 0;
        for sweep in 0..SWEEPS {
            let server = &servers[sweep % servers.len()];
            warm_up(server, &inputs.reads[..n_warm], false);
            let mut writer = Writer::new(services[sweep], inputs, None);
            (0..warm_batches).for_each(|_| writer.step());
            let mut swept_ms = Vec::with_capacity(reads.len());
            for r in 0..ROUNDS {
                // The builds after the one in use are spread over every
                // round of every sweep.
                let more = share(sizes.builds - 1, sweep * ROUNDS + r, SWEEPS * ROUNDS).len();
                build_s.extend(setup(inputs, more, |tts| build_closed(kind, tts)).1);
                share(sizes.batches, r, ROUNDS).for_each(|_| writer.step());
                errors +=
                    run_timed(server, &reads[share(reads.len(), r, ROUNDS)], 0, &mut swept_ms);
            }
            keep_fastest(&mut one_ms, &swept_ms);
            keep_fastest(&mut busy, &writer.busy_s[warm_batches..]);
            let (stats, failures, _) = writer.finish();
            let wrong = audit(&stats, inputs, inputs.batches.len());
            count_errors(report, "feed batches", inputs.batches.len(), failures + wrong);
        }
        report.end_to_end("setup_s", median(&build_s), build_s.len(), None);
        count_errors(report, "requests", SWEEPS * reads.len(), errors);
        report_latencies(report, &one_ms);
        report_feed(report, &busy, &ms(&busy), sizes.events_per_batch);
    }

    let mut v = Verdict::default();
    if let Some(net) = &built.net {
        for op in &reads[..3.min(reads.len())] {
            match op.req {
                Request::O2a(s) => check_o2a(net, &[s], &mut v),
                Request::S2s(s, t) => check_s2s(net, built.table.as_ref(), &[(s, t)], &mut v),
            }
        }
    }
    let fed = services[spanned];
    for shard in fed.shard_ids() {
        let snap = fed.network(shard).expect("own shard ids");
        check_fed(snap.network(), &[StationId(1)], &mut v);
        if built.net.is_none() {
            check_o2a(snap.network(), &[StationId(2)], &mut v);
        }
    }
    count_oracle(report, v);
}

/// Element-wise minimum of the sweeps so far and one more (the first sweep
/// is taken as it is).
fn keep_fastest(best: &mut Vec<f64>, sweep: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(sweep);
    }
    for (b, &s) in best.iter_mut().zip(sweep) {
        *b = b.min(s);
    }
}

/// Untimed requests in front of a timed list; `two_threads` warms the
/// two-engine-thread variant as well.
fn warm_up(server: &Server, ops: &[ReadOp], two_threads: bool) {
    for op in ops {
        let _ = server.serve(op, 0);
        if two_threads {
            let _ = server.serve(op, 1);
        }
    }
}

/// What one live pass produced.
struct Live {
    reads: Vec<Sample>,
    read_errors: usize,
    /// Cache hits the serving path reported, for same-shard s2s and for
    /// one-to-all requests.
    hits: [usize; 2],
    feeds: Vec<Sample>,
    busy_s: Vec<f64>,
}

/// Per-request and per-batch times of the live passes so far, each the
/// fastest seen.
#[derive(Default)]
struct LiveTimes {
    /// Per request: due → answered, started → answered, due → started.
    lat_ms: Vec<f64>,
    service_s: Vec<f64>,
    late_ms: Vec<f64>,
    /// Per batch: due → visible, hand-off → visible.
    visible_ms: Vec<f64>,
    busy_s: Vec<f64>,
}

impl LiveTimes {
    fn keep_fastest(&mut self, live: &Live) {
        let of = |f: fn(&Sample) -> f64, samples: &[Sample]| -> Vec<f64> {
            samples.iter().map(f).collect()
        };
        keep_fastest(&mut self.lat_ms, &of(Sample::latency_ms, &live.reads));
        keep_fastest(&mut self.service_s, &of(Sample::service_s, &live.reads));
        keep_fastest(&mut self.late_ms, &of(Sample::late_ms, &live.reads));
        keep_fastest(&mut self.visible_ms, &of(Sample::latency_ms, &live.feeds));
        keep_fastest(&mut self.busy_s, &live.busy_s);
    }
}

/// One live pass of `city-live`: exactly two threads on one timeline, a
/// reader serving `ops` open-loop `read_interval` apart and a writer
/// stepping `batches` feed batches `BATCH_INTERVAL` apart.
fn live_pass(
    serve: &(dyn Fn(&ReadOp, usize) -> Result<u64, String> + Sync),
    ops: &[ReadOp],
    read_interval: Duration,
    writer: &mut Writer,
    batches: usize,
) -> Live {
    let clock = Wall(Instant::now());
    let first_due = Duration::from_millis(20);
    let errors = AtomicUsize::new(0);
    let hits = [AtomicUsize::new(0), AtomicUsize::new(0)];
    let fed_before = writer.busy_s.len();
    let (reads, feeds) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            open_loop(&clock, first_due, read_interval, ops.len(), |i| match serve(&ops[i], i) {
                Ok(hit) => {
                    if ops[i].class != Class::Cross {
                        let slot = usize::from(ops[i].class == Class::O2a);
                        hits[slot].fetch_add(hit as usize, Ordering::Relaxed);
                    }
                }
                Err(_) => {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
            })
        });
        let feeds = open_loop(&clock, first_due, BATCH_INTERVAL, batches, |_| writer.step());
        (reader.join().expect("the reader does not panic"), feeds)
    });
    Live {
        reads,
        read_errors: errors.into_inner(),
        hits: hits.map(AtomicUsize::into_inner),
        feeds,
        busy_s: writer.busy_s[fed_before..].to_vec(),
    }
}

/// `qps` of `city-live`: reader capacity — requests per second of reader
/// busy time, by block of [`LIVE_BLOCK`]; an open loop's achieved rate is
/// just its schedule.
fn report_reader_capacity(report: &mut Report, service_s: &[f64], traced: bool) {
    let blocks: Vec<(f64, f64)> = service_s
        .chunks(LIVE_BLOCK)
        .filter(|c| c.len() == LIVE_BLOCK)
        .map(|c| (c.len() as f64, c.iter().sum()))
        .collect();
    report.demoted("qps", block_median_rate(&blocks), None, blocks.len(), traced);
}

fn over_limit(samples: &[Sample]) -> usize {
    let limit = LATENCY_LIMIT.as_secs_f64() * 1e3;
    samples.iter().filter(|s| s.latency_ms() > limit).count()
}

fn latency(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(Sample::latency_ms).collect()
}

/// `city-live`: reads and writes contending on a service with everything
/// on — tables, both caches, the gateway.
fn city_live(inputs: &Inputs, traced: bool, report: &mut Report) {
    let service = |threads: usize, caches: bool, timetables: Vec<Timetable>| {
        let (o2a, s2s) = if caches { (O2A_CACHE, S2S_CACHE) } else { (0, 0) };
        ShardedService::builder()
            .threads(threads)
            .cache(o2a)
            .s2s_cache(s2s)
            .tables(TransferSelection::Fraction(CITY_TABLE))
            .gateway(BorderSpec::ByName)
            .build(timetables.into_iter().map(Network::new).collect())
    };
    let builds = if traced { 1 } else { inputs.sizes.builds };
    let (primary, build_s) = setup(inputs, builds, |tts| service(1, true, tts));
    if !traced {
        report.end_to_end("setup_s", median(&build_s), build_s.len(), None);
    }
    // The other passes' services (or the one of the traced run's spanned
    // half) are benchmark apparatus, built outside `setup_s`.
    let copies = if traced { 1 } else { PASSES - 1 };
    let mut services = vec![primary.expect("at least one build")];
    services.extend((0..copies).map(|_| service(1, true, inputs.timetables.clone())));
    let servers: Vec<Server> = services
        .iter()
        .map(|svc| Server::Service {
            svc: [svc, svc],
            parts: Parts::new(svc.num_shards(), O2A_CACHE, S2S_CACHE),
        })
        .collect();
    let (server, spanned_server) = (&servers[0], &servers[1]);
    let n_warm = warm(inputs.timed_reads().len());
    let warm_batches = warm(inputs.sizes.batches);
    let serve_plain = |op: &ReadOp, _: usize| server.serve(op, 0).map(|stats| stats.cache_hits);
    let gateway_rows = |svc: &ShardedService| {
        svc.gateway_stats().map_or(0, |g| g.rows_refreshed.iter().sum::<u64>())
    };

    let checked = if traced {
        let half_reads = inputs.timed_reads().len() / 2;
        let half_batches = inputs.sizes.batches / 2;
        let origin = Instant::now();
        let mut halves =
            TracedHalves { tracer: Tracer::new(origin), untraced_s: 0.0, traced_s: 0.0 };

        // Untraced half on the first service, at the workload's rate.
        warm_up(server, &inputs.reads[..n_warm], false);
        let mut plain_writer = Writer::new(&services[0], inputs, None);
        (0..warm_batches).for_each(|_| plain_writer.step());
        let ops = &inputs.timed_reads()[..half_reads];
        let plain = live_pass(&serve_plain, ops, READ_INTERVAL, &mut plain_writer, half_batches);
        halves.untraced_s += plain.reads.iter().map(Sample::service_s).sum::<f64>()
            + plain.busy_s.iter().sum::<f64>();
        let (lat, visible) = (latency(&plain.reads), latency(&plain.feeds));
        let two_ms = two_thread_section(inputs, &service, report);
        report.demoted("latency_2t_p50_ms", median(&two_ms), Some(0.5), two_ms.len(), true);
        let (p95, q) = percentile(&lat, 0.95);
        report.demoted("latency_p95_ms", p95, Some(q), lat.len(), true);
        let (p95, q) = percentile(&visible, 0.95);
        report.demoted("feed_visible_p95_ms", p95, Some(q), visible.len(), true);
        let service_s: Vec<f64> = plain.reads.iter().map(Sample::service_s).collect();
        report_reader_capacity(report, &service_s, true);

        // The same half with spans, on the second service: the reader goes
        // through the service's path taken apart, the writer is traced.
        let mut spanned_writer = Writer::new(&services[1], inputs, Some(origin));
        (0..warm_batches).for_each(|_| spanned_writer.step());
        let reader_spans = std::sync::Mutex::new(Tracer::new(origin));
        let serve_traced = |op: &ReadOp, i: usize| {
            let mut tr = reader_spans.lock().expect("one reader holds the tracer");
            spanned_server.serve_traced(op, i as u32, &mut tr).map(|stats| stats.cache_hits)
        };
        let rows_before = gateway_rows(&services[1]);
        let spanned =
            live_pass(&serve_traced, ops, READ_INTERVAL, &mut spanned_writer, half_batches);
        halves.traced_s += spanned.reads.iter().map(Sample::service_s).sum::<f64>()
            + spanned.busy_s.iter().sum::<f64>();
        let rows = gateway_rows(&services[1]) - rows_before;
        let busy = spanned_writer.busy_s.clone();
        let fed = spanned_writer.fed();
        let (stats, failures, writer_spans) = spanned_writer.finish();
        halves.tracer.absorb(reader_spans.into_inner().expect("the reader is done"));
        halves.tracer.absorb(writer_spans.expect("a traced writer has a tracer"));
        let wrong = audit(&stats, inputs, fed);
        count_errors(report, "feed batches", fed, failures + wrong);
        count_errors(
            report,
            "live requests",
            2 * ops.len(),
            plain.read_errors
                + spanned.read_errors
                + over_limit(&plain.reads)
                + over_limit(&spanned.reads),
        );
        report_driver(report, &stats, &busy);
        let of_class = |c: Class| ops.iter().filter(|op| op.class == c).count();
        let (s2s, o2a) = (of_class(Class::S2s), of_class(Class::O2a));
        report.layer("cache.s2s_hit_rate", spanned.hits[0] as f64 / s2s.max(1) as f64, s2s);
        report.layer("cache.o2a_hit_rate", spanned.hits[1] as f64 / o2a.max(1) as f64, o2a);
        report.layer("cache.evictions", spanned_server.evictions() as f64, ops.len());

        // The arrival-rate sweep: the untraced pass was the 1× point.
        let mut sweep = vec![(1.0, plain.reads)];
        let mut next = half_reads;
        for factor in [0.5, 1.5] {
            let interval = READ_INTERVAL.div_f64(factor);
            let n = (SWEEP_SECONDS / interval.as_secs_f64()) as usize;
            let batches = (SWEEP_SECONDS / BATCH_INTERVAL.as_secs_f64()) as usize;
            let left = inputs.batches.len() - plain_writer.fed();
            let ops = &inputs.timed_reads()[next.min(inputs.timed_reads().len() - 1)..];
            let ops = &ops[..n.min(ops.len())];
            next += ops.len();
            let pass = live_pass(&serve_plain, ops, interval, &mut plain_writer, batches.min(left));
            sweep.push((factor, pass.reads));
        }
        let swept = plain_writer.fed() - warm_batches - half_batches;
        let (_, failures, _) = plain_writer.finish();
        count_errors(report, "sweep feed batches", swept, failures);
        let base = 1.0 / READ_INTERVAL.as_secs_f64();
        let mut max_rate = 0.0f64;
        for (factor, reads) in &sweep {
            let (p95, q) = percentile(&latency(reads), 0.95);
            let name = format!("shard.sweep_p95_ms_at_{:.0}qps", base * factor);
            report.detail(&name, p95, "ms", reads.len(), Some(q));
            let keeps_up = backlog_end(reads, READ_INTERVAL.div_f64(*factor)) == 0.0;
            if keeps_up && p95 <= LATENCY_LIMIT.as_secs_f64() * 1e3 {
                max_rate = max_rate.max(base * factor);
            }
        }
        report.detail("shard.max_rate_qps", max_rate, "1/s", sweep.len(), None);
        let groups = services[1].gateway_stats().map_or(0, |g| g.groups);
        finish_traced(
            inputs,
            halves,
            0,
            (groups, rows as f64 / half_batches.max(1) as f64),
            report,
        );
        &services[1]
    } else {
        // PASSES live passes on identically built services, the same
        // requests and batches due at the same offsets; every request and
        // batch keeps its fastest time, as in the closed-loop workloads.
        let ops = inputs.timed_reads();
        let cache_before = services[0].cache_stats().unwrap_or_default();
        let rows_before = gateway_rows(&services[0]);
        let mut best = LiveTimes::default();
        let mut hits_s2s = 0;
        for (pass, (svc, server)) in services.iter().zip(&servers).enumerate() {
            let serve = |op: &ReadOp, _: usize| server.serve(op, 0).map(|stats| stats.cache_hits);
            warm_up(server, &inputs.reads[..n_warm], false);
            let mut writer = Writer::new(svc, inputs, None);
            (0..warm_batches).for_each(|_| writer.step());
            let live = live_pass(&serve, ops, READ_INTERVAL, &mut writer, inputs.sizes.batches);
            let (stats, failures, _) = writer.finish();
            let wrong = audit(&stats, inputs, inputs.batches.len());
            count_errors(report, "feed batches", inputs.batches.len(), failures + wrong);
            count_errors(report, "live requests", ops.len(), live.read_errors);
            if pass == 0 {
                hits_s2s = live.hits[0];
            }
            best.keep_fastest(&live);
        }
        let limit = LATENCY_LIMIT.as_secs_f64() * 1e3;
        let late_reads = best.lat_ms.iter().filter(|&&l| l > limit).count();
        report.failed += late_reads as u64;

        report_reader_capacity(report, &best.service_s, false);
        report_latencies(report, &best.lat_ms);
        report_feed(report, &best.busy_s, &best.visible_ms, inputs.sizes.events_per_batch);

        // What only this workload has: request classes, the tail, the
        // load generator's own health, cache and gateway counters (the
        // counters are the first pass's).
        let lat = &best.lat_ms;
        for (class, name) in [
            (Class::S2s, "shard.class_s2s_p95_ms"),
            (Class::O2a, "shard.class_o2a_p95_ms"),
            (Class::Cross, "shard.class_cross_p95_ms"),
        ] {
            let of_class: Vec<f64> =
                ops.iter().zip(lat).filter(|(op, _)| op.class == class).map(|(_, &l)| l).collect();
            let (p95, q) = percentile(&of_class, 0.95);
            report.detail(name, p95, "ms", of_class.len(), Some(q));
        }
        let (p99, q) = percentile(lat, 0.99);
        report.detail("shard.latency_p99_ms", p99, "ms", lat.len(), Some(q));
        let over = late_reads as f64 / ops.len() as f64;
        report.detail("shard.over_limit_share", over, "ratio", ops.len(), None);
        let cross: Vec<f64> = ops
            .iter()
            .zip(&best.service_s)
            .filter(|(op, _)| op.class == Class::Cross)
            .map(|(_, s)| s * 1e3)
            .collect();
        report.detail("gateway.stitch_ms_p50", median(&cross), "ms", cross.len(), Some(0.5));
        let offered = 1.0 / READ_INTERVAL.as_secs_f64();
        report.detail("load.offered_qps", offered, "1/s", ops.len(), None);
        let (late_p95, q) = percentile(&best.late_ms, 0.95);
        report.detail("load.late_p95_ms", late_p95, "ms", ops.len(), Some(q));
        let backlog = (best.late_ms.last().copied().unwrap_or(0.0) * offered / 1e3).floor();
        report.detail("load.backlog_end", backlog, "count", 1, None);
        let wall = ops.len() as f64 / offered;
        let busy = |secs: &[f64]| secs.iter().sum::<f64>() / wall;
        report.detail("load.reader_busy_share", busy(&best.service_s), "ratio", ops.len(), None);
        let batches = inputs.sizes.batches;
        report.detail("load.writer_busy_share", busy(&best.busy_s), "ratio", batches, None);
        let cache = services[0].cache_stats().unwrap_or_default();
        let (hits, misses) = (cache.hits - cache_before.hits, cache.misses - cache_before.misses);
        let lookups = (hits + misses) as usize;
        report.detail(
            "cache.o2a_hit_rate",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups,
            None,
        );
        let s2s = ops.iter().filter(|op| op.class == Class::S2s).count();
        report.detail(
            "cache.s2s_hit_rate",
            hits_s2s as f64 / s2s.max(1) as f64,
            "ratio",
            s2s,
            None,
        );
        let rows = (gateway_rows(&services[0]) - rows_before) as f64 / batches as f64;
        report.detail("gateway.border_rows_refreshed_per_feed", rows, "count", batches, None);
        &services[0]
    };

    let mut v = Verdict::default();
    let cross: Vec<ReadOp> = inputs
        .timed_reads()
        .iter()
        .filter(|op| op.class == Class::Cross)
        .take(8)
        .copied()
        .collect();
    check_stitched(checked, &cross, &mut v);
    let sampled =
        |class: Class| inputs.timed_reads().iter().filter(move |op| op.class == class).take(3);
    for op in sampled(Class::S2s).chain(sampled(Class::O2a)) {
        let (s, t) = match op.req {
            Request::S2s(s, t) => (s, Some(t)),
            Request::O2a(s) => (s, None),
        };
        let (shard, s) = checked.locate(s).expect("generated ids are in range");
        let snap = checked.network(shard).expect("own shard ids");
        match t.map(|t| checked.locate(t).expect("generated ids are in range").1) {
            Some(t) => check_s2s(snap.network(), snap.table(), &[(s, t)], &mut v),
            None => check_fed(snap.network(), &[s], &mut v),
        }
    }
    count_oracle(report, v);
}

/// `latency_2t_p50_ms` of `city-live`: the first B blocks of the request
/// list, closed loop, on a twin built with two engine threads and no
/// caches — every request is a search, so the median is a search time and
/// not the point where hits end and misses begin. Two sweeps, the faster
/// time kept. Traced run only: it needs both of the host's CPUs at once.
fn two_thread_section(
    inputs: &Inputs,
    service: &dyn Fn(usize, bool, Vec<Timetable>) -> ShardedService,
    report: &mut Report,
) -> Vec<f64> {
    let svc = service(2, false, inputs.timetables.clone());
    let server = Server::Service {
        svc: [&svc, &svc],
        parts: Parts::new(svc.num_shards(), O2A_CACHE, S2S_CACHE),
    };
    let ops = &inputs.timed_reads()[..inputs.sizes.b_blocks * PAIR_BLOCK];
    warm_up(&server, &inputs.reads[..warm(ops.len())], false);
    let mut two_ms = Vec::new();
    let mut errors = 0;
    for _ in 0..2 {
        let swept: Vec<f64> = ops
            .iter()
            .map(|op| {
                let t0 = Instant::now();
                errors += usize::from(server.serve(op, 1).is_err());
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        keep_fastest(&mut two_ms, &swept);
    }
    count_errors(report, "two-thread requests", 2 * ops.len(), errors);
    two_ms
}
