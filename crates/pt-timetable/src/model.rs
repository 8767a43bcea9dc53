//! The validated periodic-timetable model `(C, S, Z, Π, T)`.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pt_core::{ConnId, Dur, Period, StationId, Time, TrainId};

use crate::delay::{effective_delay, DelayEvent, FeedPatch};

/// A station `S ∈ S` with its minimum transfer time `T(S)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Station {
    /// Human-readable name (GTFS `stop_name`).
    pub name: String,
    /// Minimum time required to change trains at this station.
    pub transfer_time: Dur,
    /// Planar position, used by the generators and exported as lat/lon.
    pub pos: (f32, f32),
}

impl Station {
    /// Creates a station at the origin.
    pub fn new(name: impl Into<String>, transfer_time: Dur) -> Self {
        Station { name: name.into(), transfer_time, pos: (0.0, 0.0) }
    }
}

/// An elementary connection `c = (Z, S_dep, S_arr, τ_dep, τ_arr)`: train
/// `train` runs non-stop from `from` to `to`, departing at the period-local
/// time `dep` and arriving at the absolute time `arr ≥ dep` (`arr − dep` is
/// the leg duration; `arr` may exceed the period).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Connection {
    /// Departure station `S_dep`.
    pub from: StationId,
    /// Arrival station `S_arr`.
    pub to: StationId,
    /// Period-local departure time `τ_dep`.
    pub dep: Time,
    /// Absolute arrival time `τ_arr` (≥ `dep`).
    pub arr: Time,
    /// The train `Z` operating this leg.
    pub train: TrainId,
    /// Hop index of this leg within its train's journey.
    pub seq: u16,
}

impl Connection {
    /// Leg duration `Δ(τ_dep, τ_arr)`.
    #[inline]
    pub fn dur(&self) -> Dur {
        self.arr - self.dep
    }
}

/// Validation failures of [`Timetable::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimetableError {
    /// A connection references a station index out of range.
    UnknownStation {
        /// Index of the offending connection in construction order.
        conn: usize,
        /// The out-of-range station index it referenced.
        station: u32,
    },
    /// A departure time is not period-local.
    DepartureNotLocal {
        /// Index of the offending connection in construction order.
        conn: usize,
        /// The non-local departure time.
        dep: Time,
    },
    /// An arrival precedes its departure.
    ArrivalBeforeDeparture {
        /// Index of the offending connection in construction order.
        conn: usize,
    },
    /// A connection departs and arrives at the same station.
    SelfLoop {
        /// Index of the offending connection in construction order.
        conn: usize,
        /// The station it loops at.
        station: StationId,
    },
    /// A connection has zero duration.
    ZeroDuration {
        /// Index of the offending connection in construction order.
        conn: usize,
    },
    /// A trip's stops are not in chronological order (builder-level).
    NonMonotoneTrip {
        /// The train whose trip is out of order.
        train: TrainId,
    },
    /// A trip has fewer than two stops (builder-level).
    TripTooShort {
        /// The train whose trip is too short.
        train: TrainId,
    },
    /// A connection names a train `≥ num_trains`.
    UnknownTrain {
        /// Index of the offending connection in construction order.
        conn: usize,
        /// The out-of-range train it named.
        train: TrainId,
    },
    /// A train's hop indices are not exactly `0..k` (a gap or a duplicate).
    HopsNotDense {
        /// The train whose hops are not numbered densely.
        train: TrainId,
    },
}

impl fmt::Display for TimetableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimetableError::UnknownStation { conn, station } => {
                write!(f, "connection {conn} references unknown station {station}")
            }
            TimetableError::DepartureNotLocal { conn, dep } => {
                write!(f, "connection {conn} departs at {dep}, outside the period")
            }
            TimetableError::ArrivalBeforeDeparture { conn } => {
                write!(f, "connection {conn} arrives before it departs")
            }
            TimetableError::SelfLoop { conn, station } => {
                write!(f, "connection {conn} loops at station {station}")
            }
            TimetableError::ZeroDuration { conn } => {
                write!(f, "connection {conn} has zero duration")
            }
            TimetableError::NonMonotoneTrip { train } => {
                write!(f, "trip of train {train} is not chronologically ordered")
            }
            TimetableError::TripTooShort { train } => {
                write!(f, "trip of train {train} has fewer than two stops")
            }
            TimetableError::UnknownTrain { conn, train } => {
                write!(f, "connection {conn} names unknown train {train}")
            }
            TimetableError::HopsNotDense { train } => {
                write!(f, "hops of train {train} are not numbered 0..k without gap or duplicate")
            }
        }
    }
}

impl std::error::Error for TimetableError {}

/// Summary statistics, matching the figures the paper reports per input
/// (stations, elementary connections, connections-per-station ratio).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimetableStats {
    /// Number of stations `|S|`.
    pub stations: usize,
    /// Number of trains `|Z|`.
    pub trains: usize,
    /// Number of elementary connections `|C|`.
    pub connections: usize,
    /// Average `|conn(S)|` — the quantity that drives self-pruning quality
    /// and parallel scalability (paper, §3.2 and §5.1).
    pub conns_per_station: f64,
}

/// One station's `conn(S)` slice together with the published (schedule)
/// departure time of each of its connections — the unit of copy-on-write:
/// a feed that delays a train copies exactly the buckets of the stations
/// the train departs from and leaves every other bucket shared by
/// refcount with any snapshot cloned earlier.
#[derive(Debug, Clone, PartialEq)]
struct Bucket {
    /// Outgoing connections, ordered non-decreasingly by departure time.
    conns: Vec<Connection>,
    /// Schedule departure times, aligned with `conns` and permuted along
    /// with it on every re-sort. Delay *cancellations* restore these.
    sched: Vec<Time>,
}

/// A validated periodic timetable.
///
/// Connections are stored sorted by `(from, dep, train)` in per-station
/// buckets, so `conn(S)` — the set of outgoing connections of `S` ordered
/// non-decreasingly by departure time (paper, §3.1) — is the contiguous
/// slice [`Timetable::conn`]. [`ConnId`]s are global: id `i` lives in the
/// bucket of station `conn_station[i]` at offset `i - first_out[s]`, and
/// the bucket boundaries (`first_out`) are **fixed for the lifetime of the
/// timetable** — patches permute connections *within* a bucket only (a
/// connection's departure station never changes), which is what makes the
/// per-bucket copy-on-write sound.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Timetable {
    period: Period,
    stations: Arc<Vec<Station>>,
    num_trains: u32,
    /// `conn(S)` buckets, one per station, individually shared (`Arc`) so
    /// a clone is O(|S|) refcount bumps and a patch copies only the
    /// buckets it rewrites ([`Arc::make_mut`]).
    buckets: Vec<Arc<Bucket>>,
    /// `first_out[s] .. first_out[s+1]` is the global [`ConnId`] range of
    /// station `s`'s bucket. Immutable after validation.
    first_out: Arc<Vec<u32>>,
    /// Departure station of each global [`ConnId`] (the inverse of
    /// `first_out`'s ranges). Immutable after validation.
    conn_station: Arc<Vec<StationId>>,
    /// `train_first[t] .. train_first[t+1]` is train `t`'s slice of
    /// `train_conns`. Immutable after validation.
    train_first: Arc<Vec<u32>>,
    /// The one train → connections index: `train_conns[train_first[t] + h]`
    /// is hop `h` of train `t` (position = hop, validated in
    /// [`Timetable::new`]). Follows every re-sort, copy-on-first-touch.
    train_conns: Arc<Vec<ConnId>>,
    /// Monotonically-increasing update stamp, bumped by every in-place
    /// mutation ([`Timetable::patch_feed`]) that changes at least one
    /// connection time. Query caches key on it: a bumped generation
    /// invalidates every cached result for free.
    generation: u64,
}

impl Timetable {
    /// Validates and indexes a timetable. Connections may be in any order.
    pub fn new(
        period: Period,
        stations: Vec<Station>,
        mut conns: Vec<Connection>,
        num_trains: u32,
    ) -> Result<Self, TimetableError> {
        let n = stations.len() as u32;
        let mut train_first = vec![0u32; num_trains as usize + 1];
        for (i, c) in conns.iter().enumerate() {
            if c.from.0 >= n {
                return Err(TimetableError::UnknownStation { conn: i, station: c.from.0 });
            }
            if c.to.0 >= n {
                return Err(TimetableError::UnknownStation { conn: i, station: c.to.0 });
            }
            if !period.contains(c.dep) {
                return Err(TimetableError::DepartureNotLocal { conn: i, dep: c.dep });
            }
            if c.arr < c.dep {
                return Err(TimetableError::ArrivalBeforeDeparture { conn: i });
            }
            if c.arr == c.dep {
                return Err(TimetableError::ZeroDuration { conn: i });
            }
            if c.from == c.to {
                return Err(TimetableError::SelfLoop { conn: i, station: c.from });
            }
            if c.train.0 >= num_trains {
                return Err(TimetableError::UnknownTrain { conn: i, train: c.train });
            }
            train_first[c.train.idx() + 1] += 1;
        }
        for t in 1..train_first.len() {
            train_first[t] += train_first[t - 1];
        }
        conns.sort_unstable_by_key(|c| (c.from, c.dep, c.train, c.seq));
        let mut first_out = vec![0u32; stations.len() + 1];
        for c in &conns {
            first_out[c.from.idx() + 1] += 1;
        }
        for i in 1..first_out.len() {
            first_out[i] += first_out[i - 1];
        }
        let conn_station: Vec<StationId> = conns.iter().map(|c| c.from).collect();
        // A train with k connections owns k slots; hop h goes to slot h, so
        // the slice is dense exactly when no hop is out of range or taken.
        const UNSET: ConnId = ConnId(u32::MAX);
        let mut train_conns = vec![UNSET; conns.len()];
        for (i, c) in conns.iter().enumerate() {
            let (lo, hi) = (train_first[c.train.idx()], train_first[c.train.idx() + 1]);
            match train_conns[lo as usize..hi as usize].get_mut(c.seq as usize) {
                Some(slot) if *slot == UNSET => *slot = ConnId::from_idx(i),
                _ => return Err(TimetableError::HopsNotDense { train: c.train }),
            }
        }
        let buckets = (0..stations.len())
            .map(|s| {
                let (lo, hi) = (first_out[s] as usize, first_out[s + 1] as usize);
                let conns = conns[lo..hi].to_vec();
                let sched = conns.iter().map(|c| c.dep).collect();
                Arc::new(Bucket { conns, sched })
            })
            .collect();
        Ok(Timetable {
            period,
            stations: Arc::new(stations),
            num_trains,
            buckets,
            first_out: Arc::new(first_out),
            conn_station: Arc::new(conn_station),
            train_first: Arc::new(train_first),
            train_conns: Arc::new(train_conns),
            generation: 0,
        })
    }

    /// The periodicity `Π`.
    #[inline]
    pub fn period(&self) -> Period {
        self.period
    }

    /// The update generation: 0 for a freshly validated timetable, bumped by
    /// every mutation that changes connection times
    /// ([`Timetable::patch_feed`]). Monotonically increasing, so any result
    /// derived from generation `g` is stale exactly when `generation() > g`.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Applies a whole realtime feed **in place**, in one pass: events are
    /// coalesced per train (each applied in feed order on top of its
    /// predecessors, exactly as one-event feeds applied one after another
    /// would), connections — found through the per-train index, not by a
    /// scan — are rewritten once with their *net* new times, each touched
    /// `conn(S)` bucket is re-sorted once, and one merged [`ConnId`] remap
    /// is returned. A single delay or cancellation is the one-event feed.
    ///
    /// Durations are preserved (`arr` shifts with `dep`), so the station
    /// graph is invariant. Only the mentioned trains' connections are
    /// rewritten and only the touched buckets re-sorted — the rest of the
    /// index (`first_out`, untouched buckets) stays, which is what makes the
    /// fully dynamic scenario (paper §5.1) cheap. Because `conn(S)` must stay
    /// ordered by departure time, a re-sort can renumber the [`ConnId`]s
    /// inside a bucket; the per-train index follows here, and
    /// [`FeedPatch::remapped`] records the moves so the graph can. An
    /// event matching no connection (unknown train, hop out of range), a
    /// delay fully absorbed by its recovery and the cancellation of a
    /// never-delayed train are no-ops.
    ///
    /// Bumps [`Timetable::generation`] **once** iff at least one connection
    /// ended up with a different time than before the feed — a feed whose
    /// events cancel out (delay + cancel of the same train) is a no-op and
    /// leaves the generation alone.
    pub fn patch_feed(&mut self, events: &[DelayEvent]) -> FeedPatch {
        if events.is_empty() {
            return FeedPatch::default();
        }
        let mut feed_trains: Vec<TrainId> = events.iter().map(DelayEvent::train).collect();
        feed_trains.sort_unstable();
        feed_trains.dedup();

        // Simulate the feed on working copies of the departure times.
        let pi = self.period.len() as u64;
        let mut deps: Vec<Vec<Time>> = feed_trains
            .iter()
            .map(|&t| self.train_connections(t).iter().map(|&c| self.connection(c).dep).collect())
            .collect();
        for ev in events {
            let s = feed_trains.binary_search(&ev.train()).expect("every feed train is indexed");
            match *ev {
                DelayEvent::Delay { from_hop, delay, recovery, .. } => {
                    for (hops_in, d) in deps[s].iter_mut().skip(from_hop as usize).enumerate() {
                        let effective = effective_delay(delay, recovery, hops_in as u32);
                        if effective == Dur::ZERO {
                            continue;
                        }
                        // 64-bit reduction: `dep + effective` may exceed u32
                        // for adversarial delays; the period-local result
                        // never does.
                        *d = Time(((d.secs() as u64 + effective.secs() as u64) % pi) as u32);
                    }
                }
                DelayEvent::Cancel { train } => {
                    for (d, &c) in deps[s].iter_mut().zip(self.train_connections(train)) {
                        *d = self.scheduled_dep(c);
                    }
                }
            }
        }

        // One coalesced write-back of the *net* new times.
        let mut touched: Vec<StationId> = Vec::new();
        let mut trains: Vec<TrainId> = Vec::new();
        for (&t, deps) in feed_trains.iter().zip(&deps) {
            let mut train_changed = false;
            for (hop, &new_dep) in deps.iter().enumerate() {
                let ci = self.train_connections(t)[hop].idx();
                if self.conn_at(ci).dep != new_dep {
                    let st = self.conn_station[ci].idx();
                    let lo = self.first_out[st] as usize;
                    // Copy-on-touch: the first write to a shared bucket
                    // clones it; every untouched bucket stays shared.
                    let c = &mut Arc::make_mut(&mut self.buckets[st]).conns[ci - lo];
                    let dur = c.dur();
                    c.dep = new_dep;
                    c.arr = new_dep + dur;
                    touched.push(c.from);
                    train_changed = true;
                }
            }
            if train_changed {
                trains.push(t);
            }
        }
        if touched.is_empty() {
            return FeedPatch::default();
        }
        self.generation += 1;
        touched.sort_unstable();
        touched.dedup();
        let remapped = self.resort_buckets(&touched);
        FeedPatch { changed: true, trains, remapped }
    }

    /// Restores per-bucket departure order after connection times moved,
    /// recording every [`ConnId`] move; the per-train index follows and the
    /// schedule times ride along (cancellations survive any re-sort).
    fn resort_buckets(&mut self, touched: &[StationId]) -> Vec<(ConnId, ConnId)> {
        let mut remapped: Vec<(ConnId, ConnId)> = Vec::new();
        for &s in touched {
            let lo = self.first_out[s.idx()] as usize;
            // The bucket was already unshared by the write-back above, so
            // this `make_mut` is a plain `&mut` in the common case.
            let b = Arc::make_mut(&mut self.buckets[s.idx()]);
            let mut tagged: Vec<(Connection, Time, u32)> = b
                .conns
                .iter()
                .copied()
                .zip(b.sched.iter().copied())
                .zip(lo as u32..)
                .map(|((c, sd), i)| (c, sd, i))
                .collect();
            // Stable on purpose: the key is unique, so the order is the
            // same, and the run-adaptive stable sort merges the few runs of
            // a bucket that is sorted but for its re-timed entries.
            tagged.sort_by_key(|&(c, _, _)| (c.dep, c.train, c.seq));
            for (offset, &(c, sd, old)) in tagged.iter().enumerate() {
                let new = (lo + offset) as u32;
                b.conns[offset] = c;
                b.sched[offset] = sd;
                if old != new {
                    remapped.push((ConnId(old), ConnId(new)));
                    // Position = hop, so the index follows a move with one
                    // write and no search — also when ids swap inside one
                    // train's slice. Copies on the first move after a clone.
                    let slot = self.train_first[c.train.idx()] as usize + c.seq as usize;
                    Arc::make_mut(&mut self.train_conns)[slot] = ConnId(new);
                }
            }
        }
        remapped
    }

    /// A connection by global index (bucket-indirected).
    #[inline]
    fn conn_at(&self, i: usize) -> &Connection {
        let s = self.conn_station[i].idx();
        &self.buckets[s].conns[i - self.first_out[s] as usize]
    }

    /// The published (schedule) departure time of a connection — what a
    /// [`DelayEvent::Cancel`] restores. Equals [`Connection::dep`] unless
    /// the connection currently carries a delay.
    #[inline]
    pub fn scheduled_dep(&self, c: ConnId) -> Time {
        let s = self.conn_station[c.idx()].idx();
        self.buckets[s].sched[c.idx() - self.first_out[s] as usize]
    }

    /// Number of stations `|S|`.
    #[inline]
    pub fn num_stations(&self) -> usize {
        self.stations.len()
    }

    /// Number of trains `|Z|`.
    #[inline]
    pub fn num_trains(&self) -> usize {
        self.num_trains as usize
    }

    /// Number of elementary connections `|C|`.
    #[inline]
    pub fn num_connections(&self) -> usize {
        *self.first_out.last().expect("first_out has S+1 entries") as usize
    }

    /// All stations, indexed by [`StationId`].
    #[inline]
    pub fn stations(&self) -> &[Station] {
        &self.stations
    }

    /// A single station.
    #[inline]
    pub fn station(&self, s: StationId) -> &Station {
        &self.stations[s.idx()]
    }

    /// The minimum transfer time `T(S)`.
    #[inline]
    pub fn transfer_time(&self, s: StationId) -> Dur {
        self.stations[s.idx()].transfer_time
    }

    /// All connections, sorted by `(from, dep)`, materialized from the
    /// per-station buckets; [`ConnId`] indexes the result. O(|C|) — build
    /// and validation paths only; queries go through [`Timetable::conn`] /
    /// [`Timetable::connection`], which borrow straight from a bucket.
    pub fn connections(&self) -> Vec<Connection> {
        let mut out = Vec::with_capacity(self.num_connections());
        for b in &self.buckets {
            out.extend_from_slice(&b.conns);
        }
        out
    }

    /// A single connection.
    #[inline]
    pub fn connection(&self, c: ConnId) -> &Connection {
        self.conn_at(c.idx())
    }

    /// The connections of train `t` ordered by hop index (entry `h` is hop
    /// `h`); empty for a train the timetable does not know.
    #[inline]
    pub fn train_connections(&self, t: TrainId) -> &[ConnId] {
        if t.0 >= self.num_trains {
            return &[];
        }
        let (lo, hi) = (self.train_first[t.idx()], self.train_first[t.idx() + 1]);
        &self.train_conns[lo as usize..hi as usize]
    }

    /// `conn(S)`: the outgoing connections of `s`, ordered non-decreasingly
    /// by departure time.
    #[inline]
    pub fn conn(&self, s: StationId) -> &[Connection] {
        &self.buckets[s.idx()].conns
    }

    /// The [`ConnId`] range of `conn(S)`.
    #[inline]
    pub fn conn_ids(&self, s: StationId) -> std::ops::Range<u32> {
        self.first_out[s.idx()]..self.first_out[s.idx() + 1]
    }

    /// Iterates over station ids.
    pub fn station_ids(&self) -> impl Iterator<Item = StationId> + '_ {
        (0..self.stations.len() as u32).map(StationId)
    }

    /// How many `conn(S)` buckets of `self` are *physically shared* (same
    /// allocation, by refcount) with `other`. Diagnostics for the
    /// copy-on-write publish path: after a clone this is `|S|`; after a
    /// feed it drops by exactly the number of touched buckets.
    pub fn shared_buckets_with(&self, other: &Timetable) -> usize {
        self.buckets.iter().zip(&other.buckets).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Summary statistics.
    pub fn stats(&self) -> TimetableStats {
        TimetableStats {
            stations: self.num_stations(),
            trains: self.num_trains(),
            connections: self.num_connections(),
            conns_per_station: self.num_connections() as f64 / self.num_stations().max(1) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hop 0 of train `train`.
    fn conn(train: u32, from: u32, to: u32, dep_min: u32, arr_min: u32) -> Connection {
        Connection {
            from: StationId(from),
            to: StationId(to),
            dep: Time::hm(0, dep_min),
            arr: Time::hm(0, arr_min),
            train: TrainId(train),
            seq: 0,
        }
    }

    fn stations(n: usize) -> Vec<Station> {
        (0..n).map(|i| Station::new(format!("S{i}"), Dur::minutes(2))).collect()
    }

    #[test]
    fn conn_slice_is_sorted_by_departure() {
        let tt = Timetable::new(
            Period::DAY,
            stations(3),
            vec![conn(0, 0, 1, 30, 40), conn(1, 0, 2, 10, 25), conn(2, 1, 2, 5, 9)],
            3,
        )
        .unwrap();
        let out: Vec<u32> = tt.conn(StationId(0)).iter().map(|c| c.dep.secs() / 60).collect();
        assert_eq!(out, vec![10, 30]);
        assert_eq!(tt.conn(StationId(1)).len(), 1);
        assert_eq!(tt.conn(StationId(2)).len(), 0);
        assert_eq!(tt.conn_ids(StationId(0)), 0..2);
    }

    #[test]
    fn validation_rejects_bad_connections() {
        let err = |c: Connection| Timetable::new(Period::DAY, stations(2), vec![c], 1).unwrap_err();
        assert!(matches!(err(conn(0, 0, 5, 0, 10)), TimetableError::UnknownStation { .. }));
        assert!(matches!(err(conn(0, 0, 0, 0, 10)), TimetableError::SelfLoop { .. }));
        assert!(matches!(err(conn(0, 0, 1, 10, 10)), TimetableError::ZeroDuration { .. }));
        let mut c = conn(0, 0, 1, 0, 10);
        c.dep = Time::hm(25, 0);
        c.arr = Time::hm(25, 10);
        assert!(matches!(
            Timetable::new(Period::DAY, stations(2), vec![c], 1).unwrap_err(),
            TimetableError::DepartureNotLocal { .. }
        ));
        let mut c = conn(0, 0, 1, 20, 10);
        c.arr = Time::hm(0, 10);
        assert!(matches!(
            Timetable::new(Period::DAY, stations(2), vec![c], 1).unwrap_err(),
            TimetableError::ArrivalBeforeDeparture { .. }
        ));
    }

    #[test]
    fn validation_rejects_unknown_trains_and_non_dense_hops() {
        let new = |conns, trains| Timetable::new(Period::DAY, stations(3), conns, trains);
        let err = new(vec![conn(1, 0, 1, 0, 10)], 1).unwrap_err();
        assert_eq!(err, TimetableError::UnknownTrain { conn: 0, train: TrainId(1) });
        assert!(err.to_string().contains("unknown train"));
        let hop = |seq, from, to, dep| Connection { seq, ..conn(0, from, to, dep, dep + 5) };
        // Hops {0, 2}: a gap. Hops {0, 0}: a duplicate. Hop {1}: no hop 0.
        for hops in [
            vec![hop(0, 0, 1, 0), hop(2, 1, 2, 10)],
            vec![hop(0, 0, 1, 0), hop(0, 1, 2, 10)],
            vec![hop(1, 0, 1, 0)],
        ] {
            let err = new(hops, 1).unwrap_err();
            assert_eq!(err, TimetableError::HopsNotDense { train: TrainId(0) });
            assert!(err.to_string().contains("0..k"));
        }
        assert!(new(vec![hop(1, 1, 2, 10), hop(0, 0, 1, 0)], 1).is_ok(), "any input order");
    }

    /// `train_connections(t)[h]` is the connection `(t, h)` for every train.
    fn assert_index_exact(tt: &Timetable) {
        for t in (0..tt.num_trains()).map(TrainId::from_idx) {
            for (h, &c) in tt.train_connections(t).iter().enumerate() {
                let c = tt.connection(c);
                assert_eq!((c.train, c.seq as usize), (t, h));
            }
        }
    }

    #[test]
    fn train_index_follows_every_feed_of_a_random_stream() {
        use crate::delay::Recovery;
        use crate::synthetic::city::{generate_city, CityConfig};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut tt = generate_city(&CityConfig::sized(30, 4, 9));
        assert_index_exact(&tt);
        let trains = tt.num_trains() as u32;
        let mut rng = StdRng::seed_from_u64(17);
        let mut moved = 0;
        for _ in 0..40 {
            let events: Vec<DelayEvent> = (0..8)
                .map(|_| match rng.gen_range(0..4u8) {
                    0 => DelayEvent::Cancel { train: TrainId(rng.gen_range(0..trains)) },
                    _ => DelayEvent::Delay {
                        train: TrainId(rng.gen_range(0..trains)),
                        from_hop: rng.gen_range(0..3u16),
                        delay: Dur::minutes(rng.gen_range(1..60u32)),
                        recovery: Recovery::None,
                    },
                })
                .collect();
            moved += tt.patch_feed(&events).remapped.len();
            assert_index_exact(&tt);
            // The patched index is the one a fresh validation computes.
            let fresh = Timetable::new(
                tt.period(),
                tt.stations().to_vec(),
                tt.connections(),
                tt.num_trains() as u32,
            )
            .unwrap();
            assert_eq!(tt.train_conns, fresh.train_conns);
        }
        assert!(moved > 0, "no feed renumbered a connection: the follow-up never ran");
        assert!(tt.train_connections(TrainId(trains)).is_empty(), "unknown train");
    }

    #[test]
    fn train_index_follows_a_swap_inside_one_trains_slice() {
        use crate::delay::Recovery;
        // One train A→B→A→C: hops 0 and 2 share A's bucket. Running hop 0
        // 90 min late and catching up 45 min per hop moves 08:00 behind the
        // untouched 09:00, so the two ids swap within one feed.
        let at = |h, m| Time::hm(h, m);
        let hop = |seq, from, to, dep: Time| Connection {
            from: StationId(from),
            to: StationId(to),
            dep,
            arr: dep + Dur::minutes(20),
            train: TrainId(0),
            seq,
        };
        let conns = vec![hop(0, 0, 1, at(8, 0)), hop(1, 1, 0, at(8, 30)), hop(2, 0, 2, at(9, 0))];
        let mut tt = Timetable::new(Period::DAY, stations(3), conns, 1).unwrap();
        let before = tt.train_connections(TrainId(0)).to_vec();
        let patch = tt.patch_feed(&[DelayEvent::Delay {
            train: TrainId(0),
            from_hop: 0,
            delay: Dur::minutes(90),
            recovery: Recovery::CatchUp { per_hop: Dur::minutes(45) },
        }]);
        let (a, b) = (before[0], before[2]);
        assert_eq!(patch.remapped, vec![(b, a), (a, b)]);
        assert_eq!(tt.train_connections(TrainId(0)), [b, before[1], a]);
        assert_index_exact(&tt);
    }

    #[test]
    fn stats_report_ratio() {
        let tt = Timetable::new(
            Period::DAY,
            stations(2),
            vec![conn(0, 0, 1, 0, 10), conn(1, 0, 1, 30, 40), conn(2, 1, 0, 15, 25)],
            3,
        )
        .unwrap();
        let s = tt.stats();
        assert_eq!(s.stations, 2);
        assert_eq!(s.connections, 3);
        assert!((s.conns_per_station - 1.5).abs() < 1e-9);
    }

    #[test]
    fn overnight_connection_is_legal() {
        // Departs 23:50, arrives 24:10 (absolute).
        let c = Connection {
            from: StationId(0),
            to: StationId(1),
            dep: Time::hm(23, 50),
            arr: Time::hm(24, 10),
            train: TrainId(0),
            seq: 0,
        };
        let tt = Timetable::new(Period::DAY, stations(2), vec![c], 1).unwrap();
        assert_eq!(tt.connection(ConnId(0)).dur(), Dur::minutes(20));
    }
}
