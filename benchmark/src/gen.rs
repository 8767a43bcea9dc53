//! Inputs: everything a workload feeds the library, generated from
//! `--seed` before any clock starts.
//!
//! The *population* a workload draws from is fixed — the networks (preset
//! and city generator seeds are constants), the border stations, the
//! requests asked (Zipf draws from a fixed popularity ranking included),
//! the disruptions fed, the order of malformed-line kinds — and the seed
//! drives the *order*: which request is asked when, which event arrives in
//! which batch, where in a batch the garbage sits. Sizes never depend on the
//! seed, so two seeds time the same multiset of work in another order. That
//! is what keeps the spread over seeds inside the bounds: a median over
//! another sample of 240 requests moves by several per cent by its sampling
//! error alone.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pt_core::{Dur, StationId, Time};
use pt_feed::{encode_csv, encode_json, WireEvent};
use pt_spcs::ShardId;
use pt_timetable::synthetic::presets::{germany_like, metro_like};
use pt_timetable::synthetic::{generate_city, CityConfig};
use pt_timetable::{DelayEvent, Recovery, Timetable};

/// Ops per block of the interleaved 1-thread / 2-thread read sections.
pub const PAIR_BLOCK: usize = 20;
/// Batches per block behind `feed_events_per_s`.
pub const FEED_BLOCK: usize = 10;
/// One wire line in this many is malformed.
pub const MALFORMED_EVERY: usize = 100;
/// Border stations per adjacent pair of city shards.
pub const BORDERS_PER_PAIR: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MetroProfile,
    RailS2s,
    CityLive,
    FeedReplay,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::MetroProfile, Kind::RailS2s, Kind::CityLive, Kind::FeedReplay];

    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The request classes of `city-live`; the closed-loop workloads use one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    S2s,
    O2a,
    Cross,
}

/// One read request, in global station ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    O2a(StationId),
    S2s(StationId, StationId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOp {
    pub req: Request,
    pub class: Class,
}

/// One hand-off to the feed driver: wire lines carrying exactly
/// `events.len()` well-formed events (so one `tick` flushes one batch)
/// plus the occasional malformed line.
#[derive(Debug, Clone)]
pub struct Batch {
    pub lines: Vec<String>,
    /// The well-formed events, in line order (what the mirrors are fed).
    pub events: Vec<(ShardId, DelayEvent)>,
    /// Shards the batch touches, ascending.
    pub shards: Vec<ShardId>,
}

/// Op counts of one workload at one `--seconds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Blocks of [`PAIR_BLOCK`] requests timed on one engine thread.
    pub a_blocks: usize,
    /// How many of them are repeated with two engine threads.
    pub b_blocks: usize,
    /// Blocks of the two-client throughput section, and ops in each.
    pub c_blocks: usize,
    pub c_block_ops: usize,
    /// Feed batches (a multiple of [`FEED_BLOCK`]) and events in each.
    pub batches: usize,
    pub events_per_batch: usize,
    /// Timed service builds behind `setup_s` (not scaled: the cheaper a
    /// build, the more of them it takes to time it).
    pub builds: usize,
}

impl Sizes {
    /// Full-size counts (`--seconds` = [`crate::spec::RUN_SECONDS`]) scaled
    /// by `scale`, never below one block.
    pub fn of(kind: Kind, scale: f64) -> Sizes {
        let (a, b, c, c_ops, feed_blocks, events, builds) = match kind {
            Kind::MetroProfile => (10, 10, 20, 10, 20, 16, 50),
            Kind::RailS2s => (20, 10, 20, 30, 20, 16, 7),
            // 240 reads 33 ms apart, 200 batches 40 ms apart: both 8 s.
            Kind::CityLive => (12, 10, 0, 0, 20, 8, 10),
            Kind::FeedReplay => (10, 10, 20, 10, 20, 64, 40),
        };
        let s = |n: usize| if n == 0 { 0 } else { ((n as f64 * scale).round() as usize).max(1) };
        Sizes {
            a_blocks: s(a),
            b_blocks: s(b).min(s(a)),
            c_blocks: s(c),
            c_block_ops: c_ops,
            batches: s(feed_blocks) * FEED_BLOCK,
            events_per_batch: events,
            builds,
        }
    }
}

/// `city-live` pacing: a read is due every `READ_INTERVAL`, a feed batch
/// every `BATCH_INTERVAL`; a read that takes longer than `LATENCY_LIMIT`
/// from its due time counts as failed.
pub const READ_INTERVAL: std::time::Duration = std::time::Duration::from_millis(50);
pub const BATCH_INTERVAL: std::time::Duration = std::time::Duration::from_millis(60);
pub const LATENCY_LIMIT: std::time::Duration = std::time::Duration::from_millis(500);

pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    pub sizes: Sizes,
    /// One timetable per shard.
    pub timetables: Vec<Timetable>,
    /// Section A requests; section B repeats a prefix of them. The first
    /// `warm(len)` entries of this list, of `reads_c` and of `batches` are
    /// extra: they run untimed, before the op list proper.
    pub reads: Vec<ReadOp>,
    /// The two-client throughput section's requests.
    pub reads_c: Vec<ReadOp>,
    pub batches: Vec<Batch>,
    /// Malformed lines injected, per `DecodeError::kind()`.
    pub malformed: BTreeMap<&'static str, u64>,
    /// Hash of everything above: equal seeds must give equal fingerprints.
    pub fingerprint: u64,
    /// Hash of the sizes alone: equal across seeds, or runs do not compare.
    pub shape: u64,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64, scale: f64) -> Inputs {
        let sizes = Sizes::of(kind, scale);
        let timetables = match kind {
            Kind::MetroProfile => vec![metro_like(0.05).timetable],
            Kind::RailS2s => vec![germany_like(2.0).timetable],
            Kind::CityLive => city_shards(),
            Kind::FeedReplay => vec![metro_like(0.05).timetable, germany_like(1.0).timetable],
        };
        let mut bases = vec![0u32];
        for tt in &timetables {
            bases.push(bases.last().unwrap() + tt.num_stations() as u32);
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB3_7C4);
        let n_a = sizes.a_blocks * PAIR_BLOCK;
        let n_c = sizes.c_blocks * sizes.c_block_ops;
        // Which requests are asked is part of the population: they are
        // drawn from a constant, and the seed decides their order (within
        // a request class and a shard, so every block keeps its mix). Two
        // seeds then time the same multiset of work; a median over another
        // sample of requests would move by its sampling error alone.
        // Warm-up ops are drawn first and apart, so the timed lists keep
        // their shape (every station once, whole blocks of the class mix).
        let mut fixed = StdRng::seed_from_u64(0x9E0 + kind as u64);
        let mut draw = |n: usize| -> Vec<ReadOp> {
            let mut ops = |n: usize| match kind {
                Kind::MetroProfile | Kind::FeedReplay => o2a_ops(&bases, n, &mut fixed),
                Kind::RailS2s => pair_ops(&bases, n, &mut fixed),
                Kind::CityLive => city_ops(&timetables, &bases, n, &mut fixed),
            };
            let (mut list, mut timed) = (ops(warm(n)), ops(n));
            reorder(&mut timed, &bases, &mut rng);
            list.append(&mut timed);
            list
        };
        let (reads, reads_c) = (draw(n_a), draw(n_c));
        let (batches, malformed) = wire_day(kind, &timetables, &sizes, &mut rng);

        let mut shape = Fnv::new();
        shape.str(kind.name());
        for n in [
            sizes.a_blocks,
            sizes.b_blocks,
            sizes.c_blocks,
            sizes.c_block_ops,
            sizes.batches,
            sizes.events_per_batch,
        ] {
            shape.u64(n as u64);
        }
        for tt in &timetables {
            shape.u64(tt.num_stations() as u64);
            shape.u64(tt.num_trains() as u64);
            shape.u64(tt.num_connections() as u64);
        }
        let mut fp = Fnv(shape.0);
        fp.u64(seed);
        for op in reads.iter().chain(&reads_c) {
            match op.req {
                Request::O2a(s) => fp.u64(u64::from(s.0)),
                Request::S2s(s, t) => fp.u64(u64::from(s.0) << 32 | u64::from(t.0)),
            }
        }
        for b in &batches {
            for line in &b.lines {
                fp.str(line);
            }
        }
        Inputs {
            kind,
            seed,
            sizes,
            timetables,
            reads,
            reads_c,
            batches,
            malformed,
            fingerprint: fp.0,
            shape: shape.0,
        }
    }

    /// Well-formed events in the wire day.
    pub fn valid_events(&self) -> usize {
        self.batches.iter().map(|b| b.events.len()).sum()
    }

    /// Section A's timed requests (the list minus its warm-up prefix).
    pub fn timed_reads(&self) -> &[ReadOp] {
        &self.reads[warm(self.sizes.a_blocks * PAIR_BLOCK)..]
    }
}

/// Warm-up ops in front of a list of `n` timed ones: 5 %, rounded up.
pub fn warm(n: usize) -> usize {
    (n as f64 * 0.05).ceil() as usize
}

/// FNV-1a, 64 bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
}

fn permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// Reorders `ops` in place: the requests of one class whose source is on
/// one shard swap places among themselves, by a seeded permutation.
fn reorder(ops: &mut [ReadOp], bases: &[u32], rng: &mut StdRng) {
    let group = |op: &ReadOp| {
        let (Request::O2a(s) | Request::S2s(s, _)) = op.req;
        (op.class as usize, bases.partition_point(|&b| b <= s.0))
    };
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, op) in ops.iter().enumerate() {
        groups.entry(group(op)).or_default().push(i);
    }
    for places in groups.values() {
        let moved: Vec<ReadOp> =
            permutation(places.len(), rng).into_iter().map(|j| ops[places[j as usize]]).collect();
        for (&at, op) in places.iter().zip(moved) {
            ops[at] = op;
        }
    }
}

/// `n` draws without replacement from `0..population`, starting over with
/// a fresh permutation whenever the population is used up: every element
/// is asked for equally often, whatever the seed.
fn cycling_draws(population: usize, n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let p = permutation(population, rng);
        let take = (n - out.len()).min(p.len());
        out.extend_from_slice(&p[..take]);
    }
    out
}

/// One-to-all sources, each shard's stations in seeded-permutation order.
/// On two shards (`feed-replay`: a fed city network and a fed rail network,
/// an order of magnitude apart in cost) three requests in four go to the
/// second, so the median sits inside the rail mode and the 95th percentile
/// inside the city mode — an even split would put the median on the gap
/// between the two.
fn o2a_ops(bases: &[u32], n: usize, rng: &mut StdRng) -> Vec<ReadOp> {
    let shards = bases.len() - 1;
    let pattern: &[usize] = if shards == 1 { &[0] } else { &[1, 1, 1, 0] };
    let mut per_shard: Vec<std::vec::IntoIter<u32>> = (0..shards)
        .map(|sh| cycling_draws((bases[sh + 1] - bases[sh]) as usize, n, rng).into_iter())
        .collect();
    (0..n)
        .map(|i| {
            let sh = pattern[i % pattern.len()];
            let local = per_shard[sh].next().expect("n draws per shard cover n requests");
            ReadOp { req: Request::O2a(StationId(bases[sh] + local)), class: Class::O2a }
        })
        .collect()
}

/// Station pairs on a single shard: sources and targets are two
/// permutations, so both marginals are uniform without replacement.
fn pair_ops(bases: &[u32], n: usize, rng: &mut StdRng) -> Vec<ReadOp> {
    let stations = bases[1] as usize;
    let sources = cycling_draws(stations, n, rng);
    let targets = cycling_draws(stations, n, rng);
    sources
        .iter()
        .zip(&targets)
        .map(|(&s, &t)| {
            let t = if s == t { (t + 1) % stations as u32 } else { t };
            ReadOp { req: Request::S2s(StationId(s), StationId(t)), class: Class::S2s }
        })
        .collect()
}

/// The three `city-live` shards: fixed cities whose stations are renamed
/// shard-unique (the generator names grid cells, so every city has a
/// "Stop 0/0"), then two stations per adjacent pair renamed to one shared
/// border name with one transfer time — what `BorderSpec::ByName` stitches
/// at.
fn city_shards() -> Vec<Timetable> {
    let raw: Vec<Timetable> =
        (0..3u64).map(|i| generate_city(&CityConfig::sized(49, 3, 0xC17E + i))).collect();
    raw.iter()
        .enumerate()
        .map(|(i, tt)| {
            let mut stations = tt.stations().to_vec();
            for s in &mut stations {
                s.name = format!("c{i}:{}", s.name);
            }
            for (local, name) in city_borders(i, stations.len()) {
                stations[local].name = name;
                stations[local].transfer_time = Dur::minutes(2);
            }
            Timetable::new(tt.period(), stations, tt.connections(), tt.num_trains() as u32)
                .expect("a renamed timetable stays valid")
        })
        .collect()
}

/// `(local station, border name)` of shard `i`: its last stations meet the
/// next shard's first ones.
pub fn city_borders(shard: usize, stations: usize) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for k in 0..BORDERS_PER_PAIR {
        if shard > 0 {
            out.push((2 + k, format!("border{}.{k}", shard - 1)));
        }
        if shard < 2 {
            out.push((stations - 4 + k, format!("border{shard}.{k}")));
        }
    }
    out
}

/// Zipf(1.0) sampler over a fixed popularity ranking of one shard's
/// non-border stations.
struct Zipf {
    ranked: Vec<u32>,
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(shard: usize, stations: usize) -> Zipf {
        let borders: Vec<usize> = city_borders(shard, stations).into_iter().map(|b| b.0).collect();
        // The ranking is part of the population, not of the draw.
        let mut fixed = StdRng::seed_from_u64(0x21BF + shard as u64);
        let ranked: Vec<u32> = permutation(stations, &mut fixed)
            .into_iter()
            .filter(|s| !borders.contains(&(*s as usize)))
            .collect();
        let mut acc = 0.0;
        let cumulative = (1..=ranked.len())
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        Zipf { ranked, cumulative }
    }

    fn draw(&self, rng: &mut StdRng) -> u32 {
        let x = rng.gen::<f64>() * self.cumulative.last().unwrap();
        self.ranked[self.cumulative.partition_point(|&c| c <= x).min(self.ranked.len() - 1)]
    }
}

/// `city-live` requests. Every block of 20 holds exactly 13 same-shard
/// s2s, 6 one-to-all and 1 cross-shard s2s request, so the 95th percentile
/// sits inside the one-to-all class and the median well inside the
/// same-shard one. A cross-shard request costs more than a request
/// interval (the first one after a feed also refreshes border rows), so
/// its share decides how many requests queue behind one: at one in twenty
/// the median stays a service time even when a neighbour slows the host by
/// half.
fn city_ops(timetables: &[Timetable], bases: &[u32], n: usize, rng: &mut StdRng) -> Vec<ReadOp> {
    let zipf: Vec<Zipf> =
        timetables.iter().enumerate().map(|(i, tt)| Zipf::new(i, tt.num_stations())).collect();
    let shards = timetables.len();
    let global = |sh: usize, local: u32| StationId(bases[sh] + local);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut classes = [Class::S2s; PAIR_BLOCK];
        classes[13..19].fill(Class::O2a);
        classes[19..].fill(Class::Cross);
        for i in (1..PAIR_BLOCK).rev() {
            classes.swap(i, rng.gen_range(0..=i));
        }
        for class in classes {
            let a = rng.gen_range(0..shards);
            let req = match class {
                Class::O2a => Request::O2a(global(a, zipf[a].draw(rng))),
                Class::S2s => {
                    let s = zipf[a].draw(rng);
                    let t = loop {
                        let t = zipf[a].draw(rng);
                        if t != s {
                            break t;
                        }
                    };
                    Request::S2s(global(a, s), global(a, t))
                }
                Class::Cross => {
                    let b = (a + rng.gen_range(1..shards)) % shards;
                    Request::S2s(global(a, zipf[a].draw(rng)), global(b, zipf[b].draw(rng)))
                }
            };
            out.push(ReadOp { req, class });
        }
    }
    out.truncate(n);
    out
}

/// Which shard each `city-live` batch disrupts: four in five hit the first
/// city, so the other two publish rarely enough for their cache stripes to
/// hit between publishes while the first one's never get the chance.
const CITY_BATCH_SHARDS: [usize; 10] = [0, 0, 0, 0, 1, 0, 0, 0, 0, 2];

/// One malformed line per `DecodeError::kind()`, in a fixed order.
const MALFORMED: [(&str, &str); 7] = [
    ("truncated", "08:15:00,0,delay,1"),
    ("bad_time", "25:99:00,0,cancel,1"),
    ("bad_field", "08:15:00,0,cancel,seventeen"),
    ("unknown_kind", "08:15:00,0,reroute,1"),
    ("unknown_shard", "08:15:00,99,cancel,1"),
    ("unknown_train", "08:15:00,0,cancel,4000000000"),
    ("bad_json", "{\"time\":\"08:15:00\",\"shard\":0,\"kind\":\"cancel\""),
];

/// Keeps a shard's pool of events inside what the library patches
/// faithfully, whatever order the seed puts them in. Delays of one train
/// add up until a `Cancel` withdraws them, and two things then make a
/// patched network and its from-scratch rebuild answer differently (both
/// seen on the rail shard, one feed order in ten): a departure pushed over
/// the end of the period, and a train that recovers more per hop than it
/// dwells and so leaves a stop before it has arrived there. A benchmark's
/// inputs must not fail its own oracle, so per train the delays of the
/// whole pool together stay short of the period's end (what does not fit
/// is shortened, or becomes a `Cancel`), and one event at most carries a
/// catch-up, of no more than the train's shortest dwell.
fn tame(events: &mut [DelayEvent], tt: &Timetable) {
    let period = tt.period();
    let mut hops: Vec<Vec<(u16, Time, Time)>> = vec![Vec::new(); tt.num_trains()];
    for c in tt.connections() {
        hops[c.train.0 as usize].push((c.seq, c.dep, c.arr));
    }
    // Per train: seconds of delay it can still take, its shortest dwell,
    // whether its one catch-up is spent.
    let mut trains: Vec<(u32, u32, bool)> = hops
        .iter_mut()
        .map(|hops| {
            hops.sort_unstable();
            // A train whose published run already crosses the end of the
            // period takes no delay at all.
            if !hops.windows(2).all(|w| w[0].2 <= w[1].1) {
                return (0, 0, false);
            }
            let end = hops.last().map_or(u32::MAX, |h| h.2 .0);
            let dwell = hops.windows(2).map(|w| w[1].1 .0 - w[0].2 .0).min().unwrap_or(0);
            ((period.len() - 1).saturating_sub(end), dwell, false)
        })
        .collect();
    for event in events {
        let DelayEvent::Delay { train, delay, recovery, .. } = event else { continue };
        let (slack, dwell, caught_up) = &mut trains[train.0 as usize];
        let fits = delay.secs().min(*slack);
        if fits == 0 {
            *event = DelayEvent::Cancel { train: *train };
            continue;
        }
        *slack -= fits;
        *delay = Dur(fits);
        if let Recovery::CatchUp { per_hop } = *recovery {
            let per_hop = if *caught_up { 0 } else { per_hop.secs().min(*dwell) };
            *caught_up = true;
            *recovery = match per_hop {
                0 => Recovery::None,
                secs => Recovery::CatchUp { per_hop: Dur(secs) },
            };
        }
    }
}

/// The recorded day: `sizes.batches` hand-offs (plus their warm-up
/// prefix) of `events_per_batch` well-formed events each (CSV and JSON
/// alternating), one line in [`MALFORMED_EVERY`] replaced-in as garbage of
/// every kind in turn. `city-live` batches touch one shard each
/// ([`CITY_BATCH_SHARDS`]); `feed-replay` batches alternate between its
/// shards event by event.
///
/// Which trains are disrupted how is part of the population: each shard's
/// events are drawn once, from a constant, and the seed decides the order
/// they arrive in (and where the garbage sits), so every seed replays the
/// same disruptions.
fn wire_day(
    kind: Kind,
    timetables: &[Timetable],
    sizes: &Sizes,
    rng: &mut StdRng,
) -> (Vec<Batch>, BTreeMap<&'static str, u64>) {
    let trains: Vec<u32> = timetables.iter().map(|tt| tt.num_trains() as u32).collect();
    let shards = timetables.len();
    let per_batch = sizes.events_per_batch;
    let num_batches = warm(sizes.batches) + sizes.batches;
    let total = num_batches * per_batch;
    let shard_of = |b: usize, i: usize| match kind {
        Kind::CityLive => CITY_BATCH_SHARDS[b % CITY_BATCH_SHARDS.len()],
        _ => i % shards,
    };
    // Each shard's events are drawn from a constant; the seed orders them.
    let mut fixed = StdRng::seed_from_u64(0xDA7 + kind as u64);
    let mut pools: Vec<std::vec::IntoIter<DelayEvent>> = (0..shards)
        .map(|sh| {
            let n = (0..total).filter(|&i| shard_of(i / per_batch, i) == sh).count();
            let mut pool = pt_bench::random_feed(&mut fixed, trains[sh], n, 45);
            tame(&mut pool, &timetables[sh]);
            let order = permutation(n, rng);
            order.into_iter().map(|j| pool[j as usize]).collect::<Vec<_>>().into_iter()
        })
        .collect();
    let mut malformed: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut garbage = 0usize;
    let mut batches = Vec::with_capacity(num_batches);
    for b in 0..num_batches {
        let events: Vec<(ShardId, DelayEvent)> = (0..per_batch)
            .map(|k| {
                let shard = shard_of(b, b * per_batch + k);
                let event = pools[shard].next().expect("one pooled event per slot");
                (ShardId(shard as u32), event)
            })
            .collect();
        let mut lines = Vec::with_capacity(per_batch + 1);
        for (k, &(shard, event)) in events.iter().enumerate() {
            let i = b * per_batch + k;
            let wire = WireEvent {
                // Producer clock: 06:00 onward, monotone over the day.
                time: Time(6 * 3600 + (i as u64 * 43_200 / total as u64) as u32),
                shard,
                event,
            };
            lines.push(if i.is_multiple_of(2) { encode_csv(&wire) } else { encode_json(&wire) });
            if i % MALFORMED_EVERY == MALFORMED_EVERY - 1 {
                let (label, line) = MALFORMED[garbage % MALFORMED.len()];
                garbage += 1;
                *malformed.entry(label).or_default() += 1;
                let at = rng.gen_range(0..=lines.len());
                lines.insert(at, line.to_string());
            }
        }
        let mut touched: Vec<ShardId> = events.iter().map(|e| e.0).collect();
        touched.sort_unstable();
        touched.dedup();
        batches.push(Batch { lines, events, shards: touched });
    }
    (batches, malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_draws_same_sizes() {
        let a = Inputs::generate(Kind::CityLive, 7, 0.1);
        let b = Inputs::generate(Kind::CityLive, 7, 0.1);
        let c = Inputs::generate(Kind::CityLive, 8, 0.1);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.reads, b.reads);
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!(a.shape, c.shape, "seeds change the draws, never the sizes");
        assert_eq!(a.reads.len(), c.reads.len());
        assert_eq!(a.batches.len(), c.batches.len());
        assert_eq!(a.valid_events(), c.valid_events());
        assert_eq!(a.malformed, c.malformed);
        // Another seed asks the same requests, class by class in the same
        // places, in another order.
        assert_ne!(a.reads, c.reads);
        let classes = |inp: &Inputs| inp.reads.iter().map(|op| op.class).collect::<Vec<_>>();
        assert_eq!(classes(&a), classes(&c));
        let asked = |inp: &Inputs| {
            let mut reqs: Vec<String> =
                inp.reads.iter().map(|op| format!("{:?}", op.req)).collect();
            reqs.sort();
            reqs
        };
        assert_eq!(asked(&a), asked(&c));
    }

    #[test]
    fn closed_loop_reads_cover_every_station_equally() {
        let inp = Inputs::generate(Kind::MetroProfile, 3, 1.0);
        let stations = inp.timetables[0].num_stations();
        assert_eq!(inp.timed_reads().len(), stations, "section A asks for every station once");
        let mut seen = vec![0u32; stations];
        for op in inp.timed_reads() {
            match op.req {
                Request::O2a(s) => seen[s.0 as usize] += 1,
                Request::S2s(..) => panic!("metro-profile is one-to-all"),
            }
        }
        assert!(seen.iter().all(|&n| n == 1));
    }

    #[test]
    fn city_blocks_hold_the_class_mix_exactly() {
        let inp = Inputs::generate(Kind::CityLive, 11, 0.2);
        let owner = |s: StationId| (s.0 / 49) as usize; // three cities of 49 stations
        for block in inp.timed_reads().chunks(PAIR_BLOCK) {
            let count = |c: Class| block.iter().filter(|op| op.class == c).count();
            assert_eq!((count(Class::S2s), count(Class::O2a), count(Class::Cross)), (13, 6, 1));
        }
        for op in &inp.reads {
            if let Request::S2s(s, t) = op.req {
                assert_eq!(owner(s) != owner(t), op.class == Class::Cross);
            }
        }
        // Adjacent shards share exactly their border names.
        let names = |i: usize| -> std::collections::BTreeSet<String> {
            inp.timetables[i].stations().iter().map(|s| s.name.clone()).collect()
        };
        assert_eq!(names(0).intersection(&names(1)).count(), BORDERS_PER_PAIR);
        assert_eq!(names(1).intersection(&names(2)).count(), BORDERS_PER_PAIR);
        assert_eq!(names(0).intersection(&names(2)).count(), 0);
    }

    /// Per train: do its hops follow one another inside one period?
    fn runs_in_order(tt: &Timetable) -> Vec<bool> {
        let mut hops: Vec<Vec<(u16, Time, Time)>> = vec![Vec::new(); tt.num_trains()];
        for c in tt.connections() {
            hops[c.train.0 as usize].push((c.seq, c.dep, c.arr));
        }
        hops.iter_mut()
            .map(|h| {
                h.sort_unstable();
                h.windows(2).all(|w| w[0].2 <= w[1].1)
                    && h.last().is_none_or(|l| l.2 .0 < tt.period().len())
            })
            .collect()
    }

    #[test]
    fn no_feed_order_makes_a_train_leave_before_it_arrives_or_cross_the_period() {
        for seed in [3, 4] {
            let inp = Inputs::generate(Kind::FeedReplay, seed, 0.2);
            for (sh, base) in inp.timetables.iter().enumerate() {
                let before = runs_in_order(base);
                let mut fed = base.clone();
                for batch in &inp.batches {
                    let events: Vec<DelayEvent> =
                        batch.events.iter().filter(|e| e.0.idx() == sh).map(|e| e.1).collect();
                    fed.patch_feed(&events);
                }
                let after = runs_in_order(&fed);
                let broken = before.iter().zip(&after).filter(|(b, a)| **b && !**a).count();
                assert_eq!(broken, 0, "seed {seed} shard {sh}");
                assert_ne!(fed.connections(), base.connections(), "the day does change the shard");
            }
        }
    }

    #[test]
    fn wire_day_has_one_percent_garbage_of_every_kind() {
        let inp = Inputs::generate(Kind::FeedReplay, 5, 1.0);
        let events = inp.valid_events();
        assert_eq!(events, inp.batches.len() * inp.sizes.events_per_batch);
        assert_eq!(inp.batches.len(), inp.sizes.batches + warm(inp.sizes.batches));
        let garbage: u64 = inp.malformed.values().sum();
        assert_eq!(garbage as usize, events / MALFORMED_EVERY);
        assert_eq!(inp.malformed.len(), MALFORMED.len());
        let lines: usize = inp.batches.iter().map(|b| b.lines.len()).sum();
        assert_eq!(lines, events + garbage as usize);
        // The decoder agrees with the labels.
        let decoder = pt_feed::FeedDecoder::with_roster(
            inp.timetables.iter().map(|t| t.num_trains() as u32).collect(),
        );
        for (label, line) in MALFORMED {
            assert_eq!(decoder.decode_line(line).unwrap_err().kind(), label);
        }
    }
}
