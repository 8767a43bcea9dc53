//! Reader/writer for a minimal GTFS-like CSV directory.
//!
//! The paper's city inputs come from Google Transit Data Feeds (GTFS). This
//! module supports the subset needed to reconstruct a periodic timetable for
//! one service day:
//!
//! * `stops.txt` — `stop_id, stop_name, stop_lat, stop_lon`
//! * `routes.txt` — `route_id, route_short_name, route_type` (written for
//!   completeness; the route partition is recomputed on load)
//! * `trips.txt` — `route_id, service_id, trip_id`
//! * `stop_times.txt` — `trip_id, arrival_time, departure_time, stop_id,
//!   stop_sequence` (times `HH:MM:SS`, hours ≥ 24 allowed for overnight
//!   trips)
//! * `transfers.txt` — `from_stop_id, to_stop_id, transfer_type,
//!   min_transfer_time` (rows with `from == to` carry `T(S)`)
//!
//! The parser is deliberately small: comma-separated, double-quote escaping,
//! header-driven column lookup.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use pt_core::{Dur, Period, StationId, Time};

use crate::builder::{TimetableBuilder, TripStop};
use crate::model::{Station, Timetable};
use crate::routes::Routes;

/// Errors raised while loading a GTFS directory.
#[derive(Debug)]
pub enum GtfsError {
    /// Filesystem failure.
    Io(io::Error),
    /// Malformed content.
    Parse {
        /// The file being read.
        file: String,
        /// 1-based line the parse failed on.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The resulting timetable failed validation.
    Invalid(crate::model::TimetableError),
}

impl fmt::Display for GtfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GtfsError::Io(e) => write!(f, "i/o error: {e}"),
            GtfsError::Parse { file, line, msg } => {
                write!(f, "{file}:{line}: {msg}")
            }
            GtfsError::Invalid(e) => write!(f, "invalid timetable: {e}"),
        }
    }
}

impl std::error::Error for GtfsError {}

impl From<io::Error> for GtfsError {
    fn from(e: io::Error) -> Self {
        GtfsError::Io(e)
    }
}

/// Splits one CSV record, honouring double-quoted fields with `""` escapes.
fn split_csv(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(ch) = chars.next() {
        match ch {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' => in_quotes = true,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(ch),
        }
    }
    fields.push(cur);
    fields
}

fn quote_csv(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Parses `HH:MM:SS` (hours may exceed 24, not the range of [`Time`]).
fn parse_time(s: &str) -> Option<Time> {
    let mut it = s.trim().split(':');
    let h: u32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let sec: u32 = it.next().unwrap_or("0").parse().ok()?;
    if it.next().is_some() || m >= 60 || sec >= 60 {
        return None;
    }
    let secs = h.checked_mul(3600)?.checked_add(m * 60 + sec)?;
    Some(Time(secs)).filter(|t| !t.is_infinite())
}

fn format_time(t: Time) -> String {
    let s = t.secs();
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

/// One parsed CSV file: header map + records.
struct CsvFile {
    name: String,
    header: HashMap<String, usize>,
    records: Vec<Vec<String>>,
}

impl CsvFile {
    fn read(dir: &Path, name: &str) -> Result<Option<CsvFile>, GtfsError> {
        let path = dir.join(name);
        if !path.exists() {
            return Ok(None);
        }
        let content = fs::read_to_string(&path)?;
        let mut lines = content.lines().enumerate();
        let Some((_, header_line)) = lines.next() else {
            return Ok(None);
        };
        let header: HashMap<String, usize> = split_csv(header_line.trim_end_matches('\r'))
            .into_iter()
            .enumerate()
            .map(|(i, h)| (h.trim().to_string(), i))
            .collect();
        let mut records = Vec::new();
        for (_, line) in lines {
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            records.push(split_csv(line));
        }
        Ok(Some(CsvFile { name: name.to_string(), header, records }))
    }

    fn col(&self, name: &str) -> Result<usize, GtfsError> {
        self.header.get(name).copied().ok_or_else(|| GtfsError::Parse {
            file: self.name.clone(),
            line: 1,
            msg: format!("missing column `{name}`"),
        })
    }

    fn field<'a>(&self, rec: &'a [String], col: usize, line: usize) -> Result<&'a str, GtfsError> {
        rec.get(col).map(|s| s.as_str()).ok_or_else(|| GtfsError::Parse {
            file: self.name.clone(),
            line: line + 2,
            msg: "record too short".into(),
        })
    }
}

/// Loads a timetable from a GTFS-subset directory. `default_transfer` is
/// used for stations without a `transfers.txt` entry.
pub fn load_dir(
    dir: impl AsRef<Path>,
    period: Period,
    default_transfer: Dur,
) -> Result<Timetable, GtfsError> {
    let dir = dir.as_ref();
    let stops = CsvFile::read(dir, "stops.txt")?.ok_or_else(|| GtfsError::Parse {
        file: "stops.txt".into(),
        line: 0,
        msg: "file missing".into(),
    })?;
    let stop_times = CsvFile::read(dir, "stop_times.txt")?.ok_or_else(|| GtfsError::Parse {
        file: "stop_times.txt".into(),
        line: 0,
        msg: "file missing".into(),
    })?;
    let transfers = CsvFile::read(dir, "transfers.txt")?;

    let mut builder = TimetableBuilder::new(period);
    let mut stop_ids: HashMap<String, StationId> = HashMap::new();
    {
        let id_c = stops.col("stop_id")?;
        let name_c = stops.col("stop_name")?;
        let lat_c = stops.header.get("stop_lat").copied();
        let lon_c = stops.header.get("stop_lon").copied();
        for (i, rec) in stops.records.iter().enumerate() {
            let id = stops.field(rec, id_c, i)?.to_string();
            if stop_ids.contains_key(&id) {
                return Err(GtfsError::Parse {
                    file: "stops.txt".into(),
                    line: i + 2,
                    msg: format!("duplicate stop_id `{id}`"),
                });
            }
            let name = stops.field(rec, name_c, i)?.to_string();
            let mut station = Station::new(name, default_transfer);
            if let (Some(lat), Some(lon)) = (lat_c, lon_c) {
                let lat: f32 = stops.field(rec, lat, i)?.parse().unwrap_or(0.0);
                let lon: f32 = stops.field(rec, lon, i)?.parse().unwrap_or(0.0);
                station.pos = (lon, lat);
            }
            let sid = builder.add_station(station);
            stop_ids.insert(id, sid);
        }
    }

    // stop_times, grouped by trip_id in file order, ordered by stop_sequence.
    let trip_c = stop_times.col("trip_id")?;
    let arr_c = stop_times.col("arrival_time")?;
    let dep_c = stop_times.col("departure_time")?;
    let stop_c = stop_times.col("stop_id")?;
    let seq_c = stop_times.col("stop_sequence")?;
    let mut trips: HashMap<String, Vec<(u32, usize, TripStop)>> = HashMap::new();
    let mut trip_order: Vec<String> = Vec::new();
    for (i, rec) in stop_times.records.iter().enumerate() {
        let parse_err =
            |msg: String| GtfsError::Parse { file: "stop_times.txt".into(), line: i + 2, msg };
        let trip = stop_times.field(rec, trip_c, i)?.to_string();
        let arr = parse_time(stop_times.field(rec, arr_c, i)?)
            .ok_or_else(|| parse_err("bad arrival_time".into()))?;
        let dep = parse_time(stop_times.field(rec, dep_c, i)?)
            .ok_or_else(|| parse_err("bad departure_time".into()))?;
        let stop = stop_times.field(rec, stop_c, i)?;
        let &station =
            stop_ids.get(stop).ok_or_else(|| parse_err(format!("unknown stop `{stop}`")))?;
        let seq: u32 = stop_times
            .field(rec, seq_c, i)?
            .trim()
            .parse()
            .map_err(|_| parse_err("bad stop_sequence".into()))?;
        let entry = trips.entry(trip.clone()).or_insert_with(|| {
            trip_order.push(trip);
            Vec::new()
        });
        entry.push((seq, i + 2, TripStop { station, arr, dep }));
    }
    for trip in &trip_order {
        let stops = trips.get_mut(trip).expect("trip recorded");
        stops.sort_unstable_by_key(|&(seq, line, _)| (seq, line));
        if let Some(w) = stops.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(GtfsError::Parse {
                file: "stop_times.txt".into(),
                line: w[1].1,
                msg: format!("trip `{trip}` repeats stop_sequence {}", w[0].0),
            });
        }
        let stops: Vec<TripStop> = stops.iter().map(|&(_, _, s)| s).collect();
        builder.add_trip(&stops).map_err(GtfsError::Invalid)?;
    }

    let mut tt = builder.build().map_err(GtfsError::Invalid)?;
    // Apply transfers.txt minimum transfer times (from == to rows).
    if let Some(tr) = transfers {
        let from_c = tr.col("from_stop_id")?;
        let to_c = tr.col("to_stop_id")?;
        let min_c = tr.col("min_transfer_time")?;
        let mut overrides: Vec<(StationId, Dur)> = Vec::new();
        for (i, rec) in tr.records.iter().enumerate() {
            let from = tr.field(rec, from_c, i)?;
            let to = tr.field(rec, to_c, i)?;
            if from != to {
                continue; // inter-stop transfers are out of model scope
            }
            if let (Some(&sid), Ok(secs)) =
                (stop_ids.get(from), tr.field(rec, min_c, i)?.trim().parse::<u32>())
            {
                overrides.push((sid, Dur(secs)));
            }
        }
        if !overrides.is_empty() {
            let mut stations = tt.stations().to_vec();
            for (sid, d) in overrides {
                stations[sid.idx()].transfer_time = d;
            }
            tt =
                Timetable::new(period, stations, tt.connections().to_vec(), tt.num_trains() as u32)
                    .map_err(GtfsError::Invalid)?;
        }
    }
    Ok(tt)
}

/// Writes a timetable as a GTFS-subset directory (creates it if needed).
pub fn save_dir(tt: &Timetable, dir: impl AsRef<Path>) -> Result<(), GtfsError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    let routes = Routes::partition(tt);

    let mut stops = fs::File::create(dir.join("stops.txt"))?;
    writeln!(stops, "stop_id,stop_name,stop_lat,stop_lon")?;
    for (i, s) in tt.stations().iter().enumerate() {
        writeln!(stops, "s{},{},{},{}", i, quote_csv(&s.name), s.pos.1, s.pos.0)?;
    }

    let mut transfers = fs::File::create(dir.join("transfers.txt"))?;
    writeln!(transfers, "from_stop_id,to_stop_id,transfer_type,min_transfer_time")?;
    for (i, s) in tt.stations().iter().enumerate() {
        writeln!(transfers, "s{i},s{i},2,{}", s.transfer_time.secs())?;
    }

    let mut routes_f = fs::File::create(dir.join("routes.txt"))?;
    writeln!(routes_f, "route_id,route_short_name,route_type")?;
    for r in 0..routes.len() {
        writeln!(routes_f, "r{r},R{r},3")?;
    }

    let mut trips_f = fs::File::create(dir.join("trips.txt"))?;
    writeln!(trips_f, "route_id,service_id,trip_id")?;
    let mut stop_times = fs::File::create(dir.join("stop_times.txt"))?;
    writeln!(stop_times, "trip_id,arrival_time,departure_time,stop_id,stop_sequence")?;
    for t in 0..tt.num_trains() {
        let train = pt_core::TrainId::from_idx(t);
        let conns = tt.train_connections(train);
        if conns.is_empty() {
            continue;
        }
        writeln!(trips_f, "r{},weekday,t{}", routes.route_of(train).idx(), t)?;
        // Reconstruct the absolute (arrival, departure) chain along the trip.
        let period = tt.period();
        let mut dep_abs = tt.connection(conns[0]).dep;
        let mut arr_abs = dep_abs; // arrival at the first stop = its departure
        for (h, &cid) in conns.iter().enumerate() {
            let c = tt.connection(cid);
            writeln!(
                stop_times,
                "t{},{},{},s{},{}",
                t,
                format_time(arr_abs),
                format_time(dep_abs),
                c.from.idx(),
                h + 1
            )?;
            arr_abs = dep_abs + c.dur();
            if h + 1 == conns.len() {
                writeln!(
                    stop_times,
                    "t{},{},{},s{},{}",
                    t,
                    format_time(arr_abs),
                    format_time(arr_abs),
                    c.to.idx(),
                    h + 2
                )?;
            } else {
                let next = tt.connection(conns[h + 1]);
                dep_abs = arr_abs + period.delta(period.local(arr_abs), next.dep);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pt_core::Period;

    #[test]
    fn csv_split_handles_quotes() {
        assert_eq!(split_csv("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(split_csv(r#""a,b",c"#), vec!["a,b", "c"]);
        assert_eq!(split_csv(r#""he said ""hi""",x"#), vec![r#"he said "hi""#, "x"]);
        assert_eq!(split_csv("a,,c"), vec!["a", "", "c"]);
    }

    #[test]
    fn time_parse_and_format() {
        assert_eq!(parse_time("08:30:00"), Some(Time::hm(8, 30)));
        assert_eq!(parse_time("25:05:30"), Some(Time::hms(25, 5, 30)));
        assert_eq!(parse_time("8:05:00"), Some(Time::hm(8, 5)));
        assert_eq!(parse_time("8:65:00"), None);
        assert_eq!(parse_time("junk"), None);
        // Hours beyond the range of `Time` are a parse error, not a wrap.
        assert_eq!(parse_time("1193047:00:00"), None);
        assert_eq!(parse_time("1193046:28:15"), None); // u32::MAX is ∞
        assert_eq!(parse_time("1193046:28:14"), Some(Time(u32::MAX - 1)));
        assert_eq!(format_time(Time::hms(25, 5, 30)), "25:05:30");
    }

    #[test]
    fn roundtrip_preserves_timetable() {
        use crate::builder::TimetableBuilder;
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..4).map(|i| b.add_named_station(format!("Stop {i}"), Dur::minutes(i))).collect();
        for start in [Time::hm(7, 0), Time::hm(8, 0), Time::hm(23, 45)] {
            b.add_simple_trip(
                &[s[0], s[1], s[2], s[3]],
                start,
                &[Dur::minutes(8), Dur::minutes(12), Dur::minutes(6)],
                Dur::minutes(1),
            )
            .unwrap();
        }
        b.add_simple_trip(&[s[3], s[1]], Time::hm(9, 30), &[Dur::minutes(25)], Dur::ZERO).unwrap();
        let tt = b.build().unwrap();

        let dir = std::env::temp_dir().join(format!("gtfs-roundtrip-{}", std::process::id()));
        save_dir(&tt, &dir).unwrap();
        let loaded = load_dir(&dir, Period::DAY, Dur::ZERO).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert_eq!(loaded.num_stations(), tt.num_stations());
        assert_eq!(loaded.num_trains(), tt.num_trains());
        assert_eq!(loaded.num_connections(), tt.num_connections());
        // Same multiset of connections (ids may be permuted within equal keys).
        let key = |c: &crate::model::Connection| (c.from, c.dep, c.to, c.arr);
        let mut a: Vec<_> = tt.connections().iter().map(key).collect();
        let mut b2: Vec<_> = loaded.connections().iter().map(key).collect();
        a.sort_unstable();
        b2.sort_unstable();
        assert_eq!(a, b2);
        // Transfer times survive.
        for i in 0..4 {
            assert_eq!(loaded.transfer_time(StationId(i)), Dur::minutes(i),);
        }
    }

    #[test]
    fn missing_stop_times_is_an_error() {
        let dir = std::env::temp_dir().join(format!("gtfs-missing-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stops.txt"), "stop_id,stop_name\ns0,Alpha\n").unwrap();
        let err = load_dir(&dir, Period::DAY, Dur::ZERO).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(err, GtfsError::Parse { .. }));
    }

    #[test]
    fn duplicate_stop_id_is_an_error() {
        // Merging the two rows would leave the first station an unreachable
        // orphan and attach every `s0` stop time to the second.
        let dir = std::env::temp_dir().join(format!("gtfs-duplicate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stops.txt"), "stop_id,stop_name\ns0,Alpha\ns1,Beta\ns0,Gamma\n")
            .unwrap();
        std::fs::write(
            dir.join("stop_times.txt"),
            "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
             t0,08:00:00,08:00:00,s0,1\nt0,08:10:00,08:10:00,s1,2\n",
        )
        .unwrap();
        let err = load_dir(&dir, Period::DAY, Dur::ZERO).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        let GtfsError::Parse { file, line, msg } = err else { panic!("expected Parse, got {err}") };
        assert_eq!((file.as_str(), line), ("stops.txt", 4));
        assert!(msg.contains("duplicate stop_id `s0`"), "{msg}");
    }

    #[test]
    fn duplicate_stop_sequence_is_an_error() {
        // Sorting two stops with one sequence number would order them
        // arbitrarily and could ride the trip backwards.
        let dir = std::env::temp_dir().join(format!("gtfs-dup-seq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("stops.txt"), "stop_id,stop_name\ns0,Alpha\ns1,Beta\ns2,Gamma\n")
            .unwrap();
        std::fs::write(
            dir.join("stop_times.txt"),
            "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
             t0,08:00:00,08:00:00,s0,1\nt0,08:10:00,08:10:00,s1,2\nt0,08:20:00,08:20:00,s2,2\n",
        )
        .unwrap();
        let err = load_dir(&dir, Period::DAY, Dur::ZERO).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        let GtfsError::Parse { file, line, msg } = err else { panic!("expected Parse, got {err}") };
        assert_eq!((file.as_str(), line), ("stop_times.txt", 4));
        assert!(msg.contains("trip `t0` repeats stop_sequence 2"), "{msg}");
    }
}
