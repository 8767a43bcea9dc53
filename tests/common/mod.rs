//! The one source of random inputs for the scenario suites: arbitrary
//! small timetables ([`trip_strategy`] + [`build`]) and the adversarial
//! feed-event mix ([`event_strategy`] + [`to_events`]).
//!
//! Every suite that feeds a network draws its events here, so the two
//! classes that once made fed ≠ rebuilt — delays over the end of the
//! period and catch-ups larger than the dwell — reach all of them.
//! `tests/random_timetables.rs` guards the generators against going
//! vacuous.

#![allow(dead_code)]

use proptest::prelude::*;

use best_connections::prelude::*;

/// A random trip: station path (indices into `0..n`, taken modulo the
/// network's station count by [`build`]), start minute, leg durations in
/// minutes, dwell minutes.
#[derive(Debug, Clone)]
pub struct TripSpec {
    pub path: Vec<u8>,
    pub start_min: u32,
    pub leg_min: Vec<u16>,
    pub dwell_min: u8,
}

pub fn trip_strategy(n: u8) -> impl Strategy<Value = TripSpec> {
    (2usize..=5)
        .prop_flat_map(move |len| {
            (
                prop::collection::vec(0..n, len),
                0u32..(24 * 60),
                prop::collection::vec(1u16..=130, len - 1),
                0u8..=5,
            )
        })
        .prop_map(|(path, start_min, leg_min, dwell_min)| TripSpec {
            path,
            start_min,
            leg_min,
            dwell_min,
        })
}

/// Builds a timetable with one station per `transfer_min` entry, so every
/// draw names stations that exist. Consecutive duplicate stations in a path
/// are skipped (the builder rejects self-loops), as is a trip the builder
/// rejects; `None` when no trip is left.
pub fn build(transfer_min: &[u8], trips: &[TripSpec]) -> Option<Timetable> {
    let mut b = TimetableBuilder::new(Period::DAY);
    for (i, &tm) in transfer_min.iter().enumerate() {
        b.add_named_station(format!("S{i}"), Dur::minutes(tm as u32));
    }
    let mut added = 0;
    for t in trips {
        let mut path: Vec<StationId> = Vec::new();
        for &p in &t.path {
            let s = StationId(u32::from(p) % transfer_min.len() as u32);
            if path.last() != Some(&s) {
                path.push(s);
            }
        }
        if path.len() < 2 {
            continue;
        }
        let legs: Vec<Dur> =
            t.leg_min.iter().take(path.len() - 1).map(|&m| Dur::minutes(m as u32)).collect();
        let dwell = Dur::minutes(t.dwell_min as u32);
        added +=
            usize::from(b.add_simple_trip(&path, Time(t.start_min * 60), &legs, dwell).is_ok());
    }
    if added == 0 {
        return None;
    }
    b.build().ok()
}

/// One raw feed event; train ids are reduced modulo the train count at run
/// time so overlapping (same-train) events occur often.
#[derive(Debug, Clone)]
pub enum RawEvent {
    Delay { train: u32, hop: u16, delay_min: u16, recover_min: u8 },
    Cancel { train: u32 },
}

impl RawEvent {
    pub fn to_event(&self, num_trains: u32) -> DelayEvent {
        match *self {
            RawEvent::Delay { train, hop, delay_min, recover_min } => DelayEvent::Delay {
                train: TrainId(train % num_trains),
                from_hop: hop,
                delay: Dur::minutes(delay_min as u32),
                recovery: if recover_min == 0 {
                    Recovery::None
                } else {
                    Recovery::CatchUp { per_hop: Dur::minutes(recover_min as u32) }
                },
            },
            RawEvent::Cancel { train } => DelayEvent::Cancel { train: TrainId(train % num_trains) },
        }
    }
}

/// Delays of up to a day push departures over the end of the period, and
/// a `recover_min` above the trips' 0–5 min dwell has the train leave a stop
/// before it arrived there — both are inputs a feed may carry.
pub fn event_strategy() -> impl Strategy<Value = RawEvent> {
    let delay = |minutes: std::ops::Range<u16>| {
        (0u32..1024, 0u16..4, minutes, 0u8..30).prop_map(|(train, hop, delay_min, recover_min)| {
            RawEvent::Delay { train, hop, delay_min, recover_min }
        })
    };
    prop_oneof![
        3 => delay(1..200),
        1 => delay(200..1440),
        1 => (0u32..1024).prop_map(|train| RawEvent::Cancel { train }),
    ]
}

pub fn to_events(raw: &[RawEvent], num_trains: u32) -> Vec<DelayEvent> {
    raw.iter().map(|e| e.to_event(num_trains)).collect()
}
