//! Periodic timetables (paper, §2) and the data substrates around them.
//!
//! A periodic timetable is a tuple `(C, S, Z, Π, T)`: elementary connections,
//! stations, trains, the discrete time period and per-station minimum
//! transfer times. This crate provides
//!
//! * [`Timetable`] / [`TimetableBuilder`] — the validated in-memory model,
//!   with `conn(S)` (the outgoing connections of a station, ordered by
//!   departure time) available as a contiguous slice,
//! * [`routes`] — the partition of trains into *routes* (equivalence classes
//!   by stop sequence, split further so that no train overtakes another on
//!   any route edge — the precondition for FIFO route edges in the realistic
//!   time-dependent model),
//! * [`gtfs`] — a reader/writer for a minimal GTFS-like CSV directory, the
//!   format of the paper's public inputs (Google Transit Data Feeds),
//! * [`calendar`] — service calendars (weekday masks, date ranges, exception
//!   dates) and [`Timetable::for_day`], which materializes the timetable of
//!   one concrete query day out of an imported dataset,
//! * [`synthetic`] — seeded generators for city-bus and railway networks
//!   mirroring the paper's five inputs (Oahu, Los Angeles, Washington D.C.,
//!   Germany, Europe), used because the original feeds are not shipped.

#![warn(missing_docs)]

pub mod builder;
pub mod calendar;
pub mod delay;
pub mod gtfs;
pub mod model;
pub mod routes;
pub mod synthetic;
pub mod validate;

pub use builder::{TimetableBuilder, TripStop};
pub use calendar::{
    CalendarError, Date, DayTimetable, ServiceCalendar, ServiceId, ServicePattern, Weekday,
};
pub use delay::{DelayEvent, FeedPatch, Recovery};
pub use model::{Connection, Station, Timetable, TimetableError, TimetableStats};
pub use routes::{RouteInfo, Routes};
