//! Service calendars: which trains run on which days.
//!
//! A periodic timetable describes *one* generic service day; a real
//! imported dataset (GTFS `calendar.txt` / `calendar_dates.txt`) describes
//! many — weekday services, weekend services, seasonal date ranges,
//! holiday exceptions. A [`ServiceCalendar`] layers exactly that over a
//! [`Timetable`]: every train is (optionally) assigned a [`ServiceId`],
//! each service is a [`ServicePattern`] — active weekdays within an
//! inclusive [`Date`] range, plus explicit added/removed exception dates —
//! and [`Timetable::for_day`] materializes the timetable of one concrete
//! query day by keeping exactly the trains whose service is active.
//!
//! One imported dataset therefore yields many query-day scenarios: build
//! the full timetable once, then `for_day` a Monday, a Saturday and a
//! holiday out of it. The resulting [`DayTimetable`] carries the dense
//! train-id remap, so realtime feed events recorded against the full
//! dataset can be retargeted at a day's network (and events for trains
//! that do not run that day can be recognized and dropped).
//!
//! Trains never assigned a service are treated as **daily** — they run on
//! every day — so a calendar can be introduced gradually over an existing
//! timetable without changing any behaviour until services are assigned.

use std::fmt;

use serde::{Deserialize, Serialize};

use pt_core::TrainId;

use crate::model::{Timetable, TimetableError};

/// A calendar date (proleptic Gregorian), validated on construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Date {
    year: i32,
    month: u8,
    day: u8,
}

/// A day of the week; [`Date::weekday`] computes it, [`ServicePattern`]
/// activates on a set of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Weekday {
    /// Monday (index 0 in a [`ServicePattern`]'s weekday mask).
    Monday,
    /// Tuesday.
    Tuesday,
    /// Wednesday.
    Wednesday,
    /// Thursday.
    Thursday,
    /// Friday.
    Friday,
    /// Saturday.
    Saturday,
    /// Sunday (index 6).
    Sunday,
}

impl Weekday {
    /// All seven weekdays, Monday first — index order of the activation
    /// mask in [`ServicePattern`].
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Monday = 0 … Sunday = 6.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Weekday::Monday => 0,
            Weekday::Tuesday => 1,
            Weekday::Wednesday => 2,
            Weekday::Thursday => 3,
            Weekday::Friday => 4,
            Weekday::Saturday => 5,
            Weekday::Sunday => 6,
        }
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Weekday::Monday => "Monday",
            Weekday::Tuesday => "Tuesday",
            Weekday::Wednesday => "Wednesday",
            Weekday::Thursday => "Thursday",
            Weekday::Friday => "Friday",
            Weekday::Saturday => "Saturday",
            Weekday::Sunday => "Sunday",
        };
        f.write_str(name)
    }
}

impl Date {
    /// Validates `year-month-day` (month `1..=12`, day within the month,
    /// leap years honoured).
    pub fn new(year: i32, month: u8, day: u8) -> Result<Date, CalendarError> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(CalendarError::BadDate { year, month, day });
        }
        Ok(Date { year, month, day })
    }

    /// The year.
    #[inline]
    pub fn year(self) -> i32 {
        self.year
    }

    /// The month, `1..=12`.
    #[inline]
    pub fn month(self) -> u8 {
        self.month
    }

    /// The day of the month, `1..=31`.
    #[inline]
    pub fn day(self) -> u8 {
        self.day
    }

    /// Days since 1970-01-01 (negative before); the civil-from-days
    /// bijection, so date ordering and arithmetic are exact.
    pub fn day_number(self) -> i64 {
        // Howard Hinnant's `days_from_civil` algorithm.
        let y = i64::from(self.year) - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let m = i64::from(self.month);
        let d = i64::from(self.day);
        let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        era * 146097 + doe - 719468
    }

    /// The day of the week (1970-01-01 was a Thursday).
    pub fn weekday(self) -> Weekday {
        // day_number 0 = Thursday; shift so Monday maps to index 0.
        let idx = (self.day_number() + 3).rem_euclid(7) as usize;
        Weekday::ALL[idx]
    }

    /// The following day (month/year rollover handled).
    pub fn succ(self) -> Date {
        if self.day < days_in_month(self.year, self.month) {
            Date { day: self.day + 1, ..self }
        } else if self.month < 12 {
            Date { year: self.year, month: self.month + 1, day: 1 }
        } else {
            Date { year: self.year + 1, month: 1, day: 1 }
        }
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Identifies one service pattern inside a [`ServiceCalendar`]; dense, in
/// registration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ServiceId(pub u32);

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "service {}", self.0)
    }
}

/// One service's activation rule: a weekday mask over an inclusive date
/// range, refined by explicit exception dates (GTFS `calendar.txt` +
/// `calendar_dates.txt` in one value).
///
/// Precedence mirrors GTFS: a date in `removed` is inactive no matter
/// what, a date in `added` is active even outside the range or mask, and
/// otherwise the date must lie in `[start, end]` *and* its weekday must be
/// enabled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServicePattern {
    /// Active weekdays, Monday first ([`Weekday::index`] order).
    pub weekdays: [bool; 7],
    /// First day of the activation range (inclusive).
    pub start: Date,
    /// Last day of the activation range (inclusive).
    pub end: Date,
    /// Exception dates on which the service runs regardless of range and
    /// mask (GTFS `calendar_dates.txt` exception type 1).
    pub added: Vec<Date>,
    /// Exception dates on which the service does not run, overriding
    /// everything else (exception type 2).
    pub removed: Vec<Date>,
}

impl ServicePattern {
    /// A service running every day of `[start, end]`.
    pub fn daily(start: Date, end: Date) -> ServicePattern {
        ServicePattern { weekdays: [true; 7], start, end, added: Vec::new(), removed: Vec::new() }
    }

    /// A service running on exactly the given weekdays of `[start, end]`.
    pub fn on(days: &[Weekday], start: Date, end: Date) -> ServicePattern {
        let mut weekdays = [false; 7];
        for d in days {
            weekdays[d.index()] = true;
        }
        ServicePattern { weekdays, start, end, added: Vec::new(), removed: Vec::new() }
    }

    /// Monday–Friday of `[start, end]`.
    pub fn weekdays(start: Date, end: Date) -> ServicePattern {
        use Weekday::*;
        ServicePattern::on(&[Monday, Tuesday, Wednesday, Thursday, Friday], start, end)
    }

    /// Saturday–Sunday of `[start, end]`.
    pub fn weekends(start: Date, end: Date) -> ServicePattern {
        ServicePattern::on(&[Weekday::Saturday, Weekday::Sunday], start, end)
    }

    /// Adds dates on which the service runs regardless of range and mask.
    pub fn with_added(mut self, dates: &[Date]) -> ServicePattern {
        self.added.extend_from_slice(dates);
        self
    }

    /// Adds dates on which the service does not run, overriding everything.
    pub fn with_removed(mut self, dates: &[Date]) -> ServicePattern {
        self.removed.extend_from_slice(dates);
        self
    }

    /// Is the service active on `date`? `removed` wins over `added` wins
    /// over range-and-mask.
    pub fn active_on(&self, date: Date) -> bool {
        if self.removed.contains(&date) {
            return false;
        }
        if self.added.contains(&date) {
            return true;
        }
        self.start <= date && date <= self.end && self.weekdays[date.weekday().index()]
    }
}

/// Calendar failures, all typed — a malformed date or a dangling service
/// assignment must surface as a value, never a panic, because calendars
/// arrive from external data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalendarError {
    /// The components do not name a real calendar date.
    BadDate {
        /// Requested year.
        year: i32,
        /// Requested month.
        month: u8,
        /// Requested day of month.
        day: u8,
    },
    /// A train was assigned a [`ServiceId`] the calendar does not define.
    UnknownService {
        /// The dangling id.
        service: ServiceId,
        /// Number of services the calendar actually defines.
        services: u32,
    },
    /// Filtering produced a timetable that failed re-validation (cannot
    /// happen for a valid input timetable; surfaced for honesty).
    Invalid(TimetableError),
}

impl fmt::Display for CalendarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalendarError::BadDate { year, month, day } => {
                write!(f, "{year:04}-{month:02}-{day:02} is not a valid date")
            }
            CalendarError::UnknownService { service, services } => {
                write!(f, "{service} is not defined (calendar has {services} services)")
            }
            CalendarError::Invalid(e) => write!(f, "filtered timetable failed validation: {e}"),
        }
    }
}

impl std::error::Error for CalendarError {}

/// Service patterns plus the train → service assignment.
///
/// Assignment is sparse: trains never assigned run **daily** (on every
/// date), so a calendar can wrap an existing timetable without changing
/// behaviour until services are attached.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceCalendar {
    services: Vec<ServicePattern>,
    /// `train_service[train] = Some(service)`; indexes beyond the vec (or
    /// `None`) mean "daily".
    train_service: Vec<Option<ServiceId>>,
}

impl ServiceCalendar {
    /// An empty calendar: no services, every train daily.
    pub fn new() -> ServiceCalendar {
        ServiceCalendar::default()
    }

    /// Registers a service pattern, returning its dense id.
    pub fn add_service(&mut self, pattern: ServicePattern) -> ServiceId {
        self.services.push(pattern);
        ServiceId(self.services.len() as u32 - 1)
    }

    /// The pattern behind `service`, if defined.
    pub fn service(&self, service: ServiceId) -> Option<&ServicePattern> {
        self.services.get(service.0 as usize)
    }

    /// Assigns `train` to `service`; fails on an undefined service id.
    pub fn assign(&mut self, train: TrainId, service: ServiceId) -> Result<(), CalendarError> {
        if service.0 as usize >= self.services.len() {
            return Err(CalendarError::UnknownService {
                service,
                services: self.services.len() as u32,
            });
        }
        let idx = train.idx();
        if idx >= self.train_service.len() {
            self.train_service.resize(idx + 1, None);
        }
        self.train_service[idx] = Some(service);
        Ok(())
    }

    /// Does `train` run on `date`? Unassigned (daily) trains always do.
    pub fn runs_on(&self, train: TrainId, date: Date) -> bool {
        match self.train_service.get(train.idx()).copied().flatten() {
            None => true,
            Some(s) => self.services[s.0 as usize].active_on(date),
        }
    }

    /// Per-train activation mask for `date`, over `num_trains` trains.
    pub fn active_trains(&self, num_trains: usize, date: Date) -> Vec<bool> {
        (0..num_trains).map(|t| self.runs_on(TrainId(t as u32), date)).collect()
    }
}

/// The timetable of one concrete query day ([`Timetable::for_day`]):
/// exactly the trains active on that day, with dense re-numbered train
/// ids and the remap back to the full dataset's ids.
#[derive(Debug, Clone)]
pub struct DayTimetable {
    /// The filtered timetable; train ids are dense `0..trains.len()`.
    pub timetable: Timetable,
    /// The day the timetable was materialized for.
    pub date: Date,
    /// `trains[new]` is the full-dataset [`TrainId`] behind day-local
    /// train `new`; strictly increasing (filtering preserves id order).
    pub trains: Vec<TrainId>,
    /// Trains of the full dataset that do **not** run on `date`.
    pub dropped_trains: usize,
    /// Connections filtered out along with the dropped trains.
    pub dropped_connections: usize,
}

impl DayTimetable {
    /// Maps a full-dataset train id to its day-local id, or `None` when
    /// the train does not run on this day. Binary search: `trains` is
    /// strictly increasing.
    pub fn day_train(&self, original: TrainId) -> Option<TrainId> {
        self.trains.binary_search(&original).ok().map(|i| TrainId(i as u32))
    }

    /// Maps a day-local train id back to the full dataset.
    pub fn original_train(&self, day: TrainId) -> Option<TrainId> {
        self.trains.get(day.idx()).copied()
    }
}

impl Timetable {
    /// Materializes the timetable of one concrete `date`: keeps exactly
    /// the trains whose service is active per `calendar` (unassigned
    /// trains always run), renumbers the kept trains densely and preserves
    /// stations, period and transfer times. Connection *times are taken as
    /// they currently stand* — a delayed full timetable yields a delayed
    /// day timetable; call `for_day` on the pristine dataset for the
    /// published schedule.
    ///
    /// The result cross-validates against a from-scratch rebuild that adds
    /// only the active trips to a fresh builder (see
    /// `tests/calendar_scenarios.rs` and conncheck's calendar battery): same
    /// stations, same connections, identical query answers.
    pub fn for_day(
        &self,
        calendar: &ServiceCalendar,
        date: Date,
    ) -> Result<DayTimetable, CalendarError> {
        let num_trains = self.num_trains();
        let active = calendar.active_trains(num_trains, date);
        let trains: Vec<TrainId> =
            (0..num_trains as u32).map(TrainId).filter(|t| active[t.idx()]).collect();
        // Dense old → new remap (u32::MAX = dropped).
        let mut remap = vec![u32::MAX; num_trains];
        for (new, t) in trains.iter().enumerate() {
            remap[t.idx()] = new as u32;
        }
        let mut dropped_connections = 0usize;
        let conns: Vec<_> = self
            .connections()
            .into_iter()
            .filter_map(|mut c| {
                let new = remap[c.train.idx()];
                if new == u32::MAX {
                    dropped_connections += 1;
                    None
                } else {
                    c.train = TrainId(new);
                    Some(c)
                }
            })
            .collect();
        let timetable =
            Timetable::new(self.period(), self.stations().to_vec(), conns, trains.len() as u32)
                .map_err(CalendarError::Invalid)?;
        Ok(DayTimetable {
            timetable,
            date,
            dropped_trains: num_trains - trains.len(),
            trains,
            dropped_connections,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TimetableBuilder;
    use pt_core::{Dur, Period, Time};

    fn date(y: i32, m: u8, d: u8) -> Date {
        Date::new(y, m, d).unwrap()
    }

    #[test]
    fn date_validation_and_weekdays() {
        assert!(Date::new(2026, 2, 29).is_err()); // not a leap year
        assert!(Date::new(2024, 2, 29).is_ok()); // leap year
        assert!(Date::new(2026, 13, 1).is_err());
        assert!(Date::new(2026, 4, 31).is_err());
        assert!(Date::new(2026, 0, 1).is_err() && Date::new(2026, 1, 0).is_err());
        // Known anchors: 1970-01-01 Thursday, 2026-08-08 Saturday.
        assert_eq!(date(1970, 1, 1).weekday(), Weekday::Thursday);
        assert_eq!(date(1970, 1, 1).day_number(), 0);
        assert_eq!(date(2026, 8, 8).weekday(), Weekday::Saturday);
        assert_eq!(date(2000, 3, 1).weekday(), Weekday::Wednesday);
        // succ rolls over months and years.
        assert_eq!(date(2026, 12, 31).succ(), date(2027, 1, 1));
        assert_eq!(date(2024, 2, 28).succ(), date(2024, 2, 29));
        assert_eq!(date(2026, 2, 28).succ(), date(2026, 3, 1));
        // Consecutive day numbers and weekday rotation.
        let d = date(2026, 8, 8);
        assert_eq!(d.succ().day_number(), d.day_number() + 1);
        assert_eq!(d.succ().weekday(), Weekday::Sunday);
    }

    #[test]
    fn pattern_precedence_removed_over_added_over_mask() {
        let start = date(2026, 1, 1);
        let end = date(2026, 12, 31);
        let sat = date(2026, 8, 8); // Saturday
        let mon = date(2026, 8, 10); // Monday
        let p = ServicePattern::weekdays(start, end).with_added(&[sat]).with_removed(&[mon, sat]);
        assert!(!p.active_on(sat), "removed beats added");
        assert!(!p.active_on(mon), "removed beats the weekday mask");
        assert!(p.active_on(date(2026, 8, 11)), "plain weekday active");
        assert!(!p.active_on(date(2026, 8, 9)), "Sunday off a weekday service");
        assert!(!p.active_on(date(2025, 12, 31)), "before the range");
        assert!(!p.active_on(date(2027, 1, 1)), "after the range");
        let q = ServicePattern::weekends(start, end).with_added(&[mon]);
        assert!(q.active_on(mon), "added beats the mask");
        assert!(q.active_on(sat) && !q.active_on(date(2026, 8, 11)));
    }

    fn three_train_tt() -> Timetable {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
        for h in [8u32, 9, 10] {
            b.add_simple_trip(
                &[s[0], s[1], s[2]],
                Time::hm(h, 0),
                &[Dur::minutes(10), Dur::minutes(10)],
                Dur::ZERO,
            )
            .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn unassigned_trains_run_daily() {
        let tt = three_train_tt();
        let cal = ServiceCalendar::new();
        let day = tt.for_day(&cal, date(2026, 8, 8)).unwrap();
        assert_eq!(day.timetable.num_trains(), 3);
        assert_eq!(day.timetable.connections(), tt.connections());
        assert_eq!(day.dropped_trains, 0);
        assert_eq!(day.dropped_connections, 0);
    }

    #[test]
    fn for_day_filters_and_remaps_trains() {
        let tt = three_train_tt();
        let mut cal = ServiceCalendar::new();
        let range = (date(2026, 1, 1), date(2026, 12, 31));
        let weekday = cal.add_service(ServicePattern::weekdays(range.0, range.1));
        let weekend = cal.add_service(ServicePattern::weekends(range.0, range.1));
        cal.assign(TrainId(0), weekday).unwrap();
        cal.assign(TrainId(2), weekend).unwrap(); // train 1 stays daily

        let sat = tt.for_day(&cal, date(2026, 8, 8)).unwrap();
        assert_eq!(sat.trains, vec![TrainId(1), TrainId(2)]);
        assert_eq!(sat.dropped_trains, 1);
        assert_eq!(sat.timetable.num_trains(), 2);
        // Day-local ids are dense and map back.
        assert_eq!(sat.day_train(TrainId(2)), Some(TrainId(1)));
        assert_eq!(sat.day_train(TrainId(0)), None);
        assert_eq!(sat.original_train(TrainId(0)), Some(TrainId(1)));
        // The 08:00 departure (train 0, weekday-only) is gone on Saturday.
        let deps: Vec<Time> =
            sat.timetable.conn(pt_core::StationId(0)).iter().map(|c| c.dep).collect();
        assert_eq!(deps, vec![Time::hm(9, 0), Time::hm(10, 0)]);

        let mon = tt.for_day(&cal, date(2026, 8, 10)).unwrap();
        assert_eq!(mon.trains, vec![TrainId(0), TrainId(1)]);

        // An empty day is legal: everything filtered, queries see no conns.
        let mut all_weekend = ServiceCalendar::new();
        let we = all_weekend.add_service(ServicePattern::weekends(range.0, range.1));
        for t in 0..3 {
            all_weekend.assign(TrainId(t), we).unwrap();
        }
        let empty = tt.for_day(&all_weekend, date(2026, 8, 10)).unwrap();
        assert_eq!(empty.timetable.num_trains(), 0);
        assert_eq!(empty.timetable.num_connections(), 0);
        assert_eq!(empty.dropped_connections, tt.num_connections());
    }

    #[test]
    fn assign_rejects_unknown_service() {
        let mut cal = ServiceCalendar::new();
        let err = cal.assign(TrainId(0), ServiceId(3)).unwrap_err();
        assert_eq!(err, CalendarError::UnknownService { service: ServiceId(3), services: 0 });
        assert!(err.to_string().contains("service 3"));
    }
}
