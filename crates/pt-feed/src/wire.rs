//! The wire format: recorded GTFS-RT-style event lines and their decoder.
//!
//! The build environment has no network, so ingestion works from *recorded*
//! feeds: plain text, one event per line, in either of two self-describing
//! shapes the decoder distinguishes by the first non-blank byte:
//!
//! * **CSV** — `time,shard,kind,train[,from_hop,delay_s,catchup_s]`, e.g.
//!   `08:15:00,0,delay,17,2,300,60` or `08:20:00,1,cancel,4`;
//! * **JSON lines** (a line starting with `{`) — a flat object with the
//!   same fields, e.g.
//!   `{"time":"08:15:00","shard":0,"kind":"delay","train":17,"from_hop":2,"delay_s":300,"catchup_s":60}`.
//!
//! Blank lines and `#` comments are skipped. Decoding **never panics**:
//! every malformed line becomes a typed [`DecodeError`] which the
//! [`FeedDecoder`] *quarantines* — counted per error kind, a bounded sample
//! kept for diagnostics — while the rest of the batch proceeds. A real
//! producer emits garbage eventually; quarantine is the contract that
//! garbage never takes the serving loop down with it.

use std::collections::HashMap;
use std::fmt;

use pt_core::{Dur, Time, TrainId};
use pt_spcs::ShardId;
use pt_timetable::{DelayEvent, Recovery};

/// One decoded feed line: when it was produced, which shard it targets and
/// the event itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEvent {
    /// Producer timestamp of the line (period-local wall clock).
    pub time: Time,
    /// The shard owning the train the event concerns.
    pub shard: ShardId,
    /// The payload, ready for `ShardedService::apply_feed`.
    pub event: DelayEvent,
}

/// Why one line failed to decode. Each variant is a distinct quarantine
/// counter in [`Quarantine`]; none of them is ever a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The line ended before all required fields of its kind were present.
    Truncated {
        /// Fields found.
        got: usize,
        /// Fields the event kind requires.
        need: usize,
    },
    /// The timestamp field is not a valid `HH:MM:SS` clock reading.
    BadTime(String),
    /// A numeric field failed to parse.
    BadField {
        /// Which field (`"shard"`, `"train"`, `"from_hop"`, …).
        field: &'static str,
        /// The offending token, as it appeared on the wire.
        token: String,
    },
    /// The `kind` field names neither `delay` nor `cancel`.
    UnknownKind(String),
    /// The shard id is outside the service's shard range.
    UnknownShard {
        /// The id on the wire.
        shard: u32,
        /// Number of shards the roster knows.
        shards: u32,
    },
    /// The train id does not exist in the target shard's timetable.
    UnknownTrain {
        /// The id on the wire.
        train: u32,
        /// The target shard.
        shard: u32,
        /// Trains that shard actually has.
        trains: u32,
    },
    /// A JSON line is structurally malformed (unterminated string,
    /// missing colon, trailing garbage, …).
    BadJson(String),
}

impl DecodeError {
    /// The stable counter label of this error kind (column name in
    /// [`Quarantine`] reports).
    pub fn kind(&self) -> &'static str {
        match self {
            DecodeError::Truncated { .. } => "truncated",
            DecodeError::BadTime(_) => "bad_time",
            DecodeError::BadField { .. } => "bad_field",
            DecodeError::UnknownKind(_) => "unknown_kind",
            DecodeError::UnknownShard { .. } => "unknown_shard",
            DecodeError::UnknownTrain { .. } => "unknown_train",
            DecodeError::BadJson(_) => "bad_json",
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated { got, need } => {
                write!(f, "truncated line: {got} fields, need {need}")
            }
            DecodeError::BadTime(t) => write!(f, "bad timestamp {t:?} (want HH:MM:SS)"),
            DecodeError::BadField { field, token } => {
                write!(f, "field {field}: cannot parse {token:?}")
            }
            DecodeError::UnknownKind(k) => {
                write!(f, "unknown event kind {k:?} (want delay|cancel)")
            }
            DecodeError::UnknownShard { shard, shards } => {
                write!(f, "shard {shard} out of range (service has {shards})")
            }
            DecodeError::UnknownTrain { train, shard, trains } => {
                write!(f, "train {train} unknown in shard {shard} ({trains} trains)")
            }
            DecodeError::BadJson(msg) => write!(f, "bad json: {msg}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Where malformed lines go instead of taking the driver down: per-kind
/// counters plus a bounded sample of offending lines for diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    /// Total lines quarantined.
    pub total: u64,
    /// Counter per [`DecodeError::kind`] label.
    pub by_kind: HashMap<&'static str, u64>,
    /// Up to [`Quarantine::SAMPLE_CAP`] examples: `(line_no, line, error)`.
    pub samples: Vec<(u64, String, DecodeError)>,
}

impl Quarantine {
    /// How many offending lines are kept verbatim for diagnostics.
    pub const SAMPLE_CAP: usize = 32;

    /// Records one quarantined line.
    pub fn push(&mut self, line_no: u64, line: &str, err: DecodeError) {
        self.total += 1;
        *self.by_kind.entry(err.kind()).or_insert(0) += 1;
        if self.samples.len() < Self::SAMPLE_CAP {
            self.samples.push((line_no, line.to_string(), err));
        }
    }

    /// Count for one error-kind label.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// `true` iff nothing was ever quarantined.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

impl fmt::Display for Quarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "quarantine: clean");
        }
        write!(f, "quarantine: {} lines (", self.total)?;
        let mut kinds: Vec<_> = self.by_kind.iter().collect();
        kinds.sort();
        for (i, (kind, n)) in kinds.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{kind}: {n}")?;
        }
        write!(f, ")")
    }
}

/// Decodes recorded wire lines into [`WireEvent`]s, quarantining whatever
/// does not parse or validate.
///
/// With a *roster* (trains per shard, from the live service) the decoder
/// also validates shard and train ids — a feed naming a train the
/// timetable does not have is producer garbage and must not reach
/// `apply_feed`. Without a roster only syntax is checked.
#[derive(Debug, Clone, Default)]
pub struct FeedDecoder {
    /// `roster[shard] = num_trains` of that shard; empty = no validation.
    roster: Vec<u32>,
    /// Running input line number (1-based), for quarantine samples.
    line_no: u64,
}

impl FeedDecoder {
    /// A decoder that checks syntax only.
    pub fn new() -> FeedDecoder {
        FeedDecoder::default()
    }

    /// A decoder that additionally validates shard ids against
    /// `trains_per_shard.len()` and train ids against the shard's count.
    pub fn with_roster(trains_per_shard: Vec<u32>) -> FeedDecoder {
        FeedDecoder { roster: trains_per_shard, line_no: 0 }
    }

    /// Decodes one line. `Ok(None)` for blanks and `#` comments,
    /// `Err` for anything malformed — never panics, whatever the input.
    pub fn decode_line(&self, line: &str) -> Result<Option<WireEvent>, DecodeError> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return Ok(None);
        }
        let fields =
            if trimmed.starts_with('{') { json_fields(trimmed)? } else { csv_fields(trimmed) };
        self.event_from_fields(&fields).map(Some)
    }

    /// Decodes a batch of lines, quarantining failures; the successes are
    /// returned in input order. This is the driver's entry point: it
    /// cannot fail and cannot panic.
    pub fn decode_batch(
        &mut self,
        lines: &[String],
        quarantine: &mut Quarantine,
    ) -> Vec<WireEvent> {
        let mut out = Vec::with_capacity(lines.len());
        for line in lines {
            self.line_no += 1;
            match self.decode_line(line) {
                Ok(Some(ev)) => out.push(ev),
                Ok(None) => {}
                Err(e) => quarantine.push(self.line_no, line, e),
            }
        }
        out
    }

    /// `(time, shard, kind, train[, from_hop, delay_s, catchup_s])` in
    /// field order, whichever syntax carried them.
    fn event_from_fields(&self, f: &FieldMap) -> Result<WireEvent, DecodeError> {
        let need = 4; // time, shard, kind, train — common to both kinds
        if f.len() < need {
            return Err(DecodeError::Truncated { got: f.len(), need });
        }
        let time = parse_time(f.get("time"))
            .ok_or_else(|| DecodeError::BadTime(f.get("time").to_string()))?;
        let shard: u32 = parse_num(f.get("shard"), "shard")?;
        let train: u32 = parse_num(f.get("train"), "train")?;
        if !self.roster.is_empty() {
            let shards = self.roster.len() as u32;
            if shard >= shards {
                return Err(DecodeError::UnknownShard { shard, shards });
            }
            let trains = self.roster[shard as usize];
            if train >= trains {
                return Err(DecodeError::UnknownTrain { train, shard, trains });
            }
        }
        let kind = f.get("kind");
        let event = match kind {
            "cancel" => DelayEvent::Cancel { train: TrainId(train) },
            "delay" => {
                if f.len() < 7 {
                    return Err(DecodeError::Truncated { got: f.len(), need: 7 });
                }
                let from_hop: u16 = parse_num(f.get("from_hop"), "from_hop")?;
                let delay_s: u32 = parse_num(f.get("delay_s"), "delay_s")?;
                let catchup_s: u32 = parse_num(f.get("catchup_s"), "catchup_s")?;
                let recovery = if catchup_s == 0 {
                    Recovery::None
                } else {
                    Recovery::CatchUp { per_hop: Dur(catchup_s) }
                };
                DelayEvent::Delay { train: TrainId(train), from_hop, delay: Dur(delay_s), recovery }
            }
            other => return Err(DecodeError::UnknownKind(other.to_string())),
        };
        Ok(WireEvent { time, shard: ShardId(shard), event })
    }
}

/// Encodes one event as a CSV wire line (the recorder's inverse of the
/// decoder; round-trips exactly).
pub fn encode_csv(ev: &WireEvent) -> String {
    let t = format_time(ev.time);
    match ev.event {
        DelayEvent::Cancel { train } => format!("{t},{},cancel,{}", ev.shard.0, train.0),
        DelayEvent::Delay { train, from_hop, delay, recovery } => {
            let catchup = match recovery {
                Recovery::None => 0,
                Recovery::CatchUp { per_hop } => per_hop.0,
            };
            format!("{t},{},delay,{},{from_hop},{},{catchup}", ev.shard.0, train.0, delay.0)
        }
    }
}

/// Encodes one event as a JSON wire line.
pub fn encode_json(ev: &WireEvent) -> String {
    let t = format_time(ev.time);
    match ev.event {
        DelayEvent::Cancel { train } => format!(
            "{{\"time\":\"{t}\",\"shard\":{},\"kind\":\"cancel\",\"train\":{}}}",
            ev.shard.0, train.0
        ),
        DelayEvent::Delay { train, from_hop, delay, recovery } => {
            let catchup = match recovery {
                Recovery::None => 0,
                Recovery::CatchUp { per_hop } => per_hop.0,
            };
            format!(
                "{{\"time\":\"{t}\",\"shard\":{},\"kind\":\"delay\",\"train\":{},\
                 \"from_hop\":{from_hop},\"delay_s\":{},\"catchup_s\":{catchup}}}",
                ev.shard.0, train.0, delay.0
            )
        }
    }
}

fn format_time(t: Time) -> String {
    let s = t.secs();
    format!("{:02}:{:02}:{:02}", s / 3600, (s / 60) % 60, s % 60)
}

fn parse_time(s: &str) -> Option<Time> {
    let mut it = s.trim().split(':');
    let h: u32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let sec: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || m >= 60 || sec >= 60 || h > 48 {
        return None;
    }
    Some(Time::hms(h, m, sec))
}

fn parse_num<T: std::str::FromStr>(token: &str, field: &'static str) -> Result<T, DecodeError> {
    token.trim().parse().map_err(|_| DecodeError::BadField { field, token: token.to_string() })
}

/// Decoded fields of one line, addressable by name regardless of the
/// carrying syntax (CSV positions map to the canonical field order).
struct FieldMap {
    entries: Vec<(&'static str, String)>,
}

const FIELD_ORDER: [&str; 7] =
    ["time", "shard", "kind", "train", "from_hop", "delay_s", "catchup_s"];

impl FieldMap {
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// The field's token, or `""` when absent (callers check `len` first
    /// for required prefixes; absent optional fields fail their parse).
    fn get(&self, name: &str) -> &str {
        self.entries.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str()).unwrap_or("")
    }
}

fn csv_fields(line: &str) -> FieldMap {
    let entries = line
        .split(',')
        .take(FIELD_ORDER.len())
        .enumerate()
        .map(|(i, tok)| (FIELD_ORDER[i], tok.trim().to_string()))
        .collect();
    FieldMap { entries }
}

/// A minimal flat-object JSON reader (no vendored `serde_json` exists):
/// string and unsigned-integer values only, which is exactly the wire
/// schema. Anything deeper is producer garbage → [`DecodeError::BadJson`].
fn json_fields(line: &str) -> Result<FieldMap, DecodeError> {
    let bad = |msg: &str| DecodeError::BadJson(msg.to_string());
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| bad("not a {...} object"))?;
    let mut entries = Vec::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        // Key: a quoted string.
        rest = rest.strip_prefix('"').ok_or_else(|| bad("expected quoted key"))?;
        let kend = rest.find('"').ok_or_else(|| bad("unterminated key"))?;
        let key = &rest[..kend];
        rest = rest[kend + 1..].trim_start();
        rest = rest.strip_prefix(':').ok_or_else(|| bad("expected ':' after key"))?.trim_start();
        // Value: a quoted string or a bare integer.
        let value;
        if let Some(v) = rest.strip_prefix('"') {
            let vend = v.find('"').ok_or_else(|| bad("unterminated string value"))?;
            value = v[..vend].to_string();
            rest = v[vend + 1..].trim_start();
        } else {
            let vend = rest.find([',', ' ', '\t']).unwrap_or(rest.len());
            let tok = &rest[..vend];
            if tok.is_empty() || !tok.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad(&format!("value {tok:?} is neither string nor integer")));
            }
            value = tok.to_string();
            rest = rest[vend..].trim_start();
        }
        let canon = FIELD_ORDER.iter().find(|&&f| f == key);
        if let Some(&canon) = canon {
            entries.push((canon, value));
        } // unknown keys are ignored — forward compatibility
        if let Some(r) = rest.strip_prefix(',') {
            rest = r.trim_start();
            if rest.is_empty() {
                return Err(bad("trailing comma"));
            }
        } else if !rest.is_empty() {
            return Err(bad("expected ',' between members"));
        }
    }
    Ok(FieldMap { entries })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(shard: u32) -> WireEvent {
        WireEvent {
            time: Time::hms(8, 15, 0),
            shard: ShardId(shard),
            event: DelayEvent::Delay {
                train: TrainId(17),
                from_hop: 2,
                delay: Dur(300),
                recovery: Recovery::CatchUp { per_hop: Dur(60) },
            },
        }
    }

    #[test]
    fn csv_and_json_round_trip() {
        let d = FeedDecoder::new();
        for e in [
            ev(0),
            WireEvent {
                time: Time::hms(23, 59, 59),
                shard: ShardId(3),
                event: DelayEvent::Cancel { train: TrainId(4) },
            },
            WireEvent {
                time: Time::hms(0, 0, 0),
                shard: ShardId(1),
                event: DelayEvent::Delay {
                    train: TrainId(0),
                    from_hop: 0,
                    delay: Dur(60),
                    recovery: Recovery::None,
                },
            },
        ] {
            assert_eq!(d.decode_line(&encode_csv(&e)).unwrap(), Some(e));
            assert_eq!(d.decode_line(&encode_json(&e)).unwrap(), Some(e));
        }
    }

    #[test]
    fn blanks_and_comments_skip() {
        let d = FeedDecoder::new();
        assert_eq!(d.decode_line("").unwrap(), None);
        assert_eq!(d.decode_line("   ").unwrap(), None);
        assert_eq!(d.decode_line("# recorded 2026-08-08").unwrap(), None);
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        let d = FeedDecoder::new();
        let cases: &[(&str, &str)] = &[
            ("08:15:00,0,delay", "truncated"),
            ("08:15:00,0,delay,17,2,300", "truncated"),
            ("8am,0,delay,17,2,300,0", "bad_time"),
            ("25:99:00,0,cancel,4", "bad_time"),
            ("99:00:00,0,cancel,4", "bad_time"),
            ("08:15:00,x,delay,17,2,300,0", "bad_field"),
            ("08:15:00,0,delay,-1,2,300,0", "bad_field"),
            ("08:15:00,0,boom,17,2,300,0", "unknown_kind"),
            ("{\"time\":\"08:15:00\",\"shard\":0", "bad_json"),
            ("{\"time\":08:15,\"shard\":0,\"kind\":\"cancel\",\"train\":1}", "bad_json"),
            ("{\"time\":\"08:15:00\",\"shard\":0,\"kind\":\"cancel\",\"train\":1,}", "bad_json"),
            ("{bad}", "bad_json"),
        ];
        for (line, want) in cases {
            let err = d.decode_line(line).unwrap_err();
            assert_eq!(err.kind(), *want, "line {line:?} → {err}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn roster_validates_shard_and_train() {
        let d = FeedDecoder::with_roster(vec![10, 5]);
        assert!(d.decode_line("08:00:00,1,cancel,4").unwrap().is_some());
        assert_eq!(d.decode_line("08:00:00,2,cancel,4").unwrap_err().kind(), "unknown_shard");
        assert_eq!(d.decode_line("08:00:00,1,cancel,5").unwrap_err().kind(), "unknown_train");
    }

    #[test]
    fn batch_quarantines_and_continues() {
        let mut d = FeedDecoder::new();
        let mut q = Quarantine::default();
        let lines: Vec<String> = vec![
            "08:00:00,0,cancel,1".into(),
            "garbage".into(),
            "# comment".into(),
            "08:01:00,0,delay,2,0,120,0".into(),
            "nope,0,cancel,1".into(),
        ];
        let evs = d.decode_batch(&lines, &mut q);
        assert_eq!(evs.len(), 2);
        assert_eq!(q.total, 2);
        assert_eq!(q.count("truncated") + q.count("bad_time"), 2);
        assert_eq!(q.samples.len(), 2);
        assert_eq!(q.samples[0].0, 2, "line numbers are 1-based");
        assert!(q.to_string().contains("quarantine: 2 lines"));
    }

    #[test]
    fn json_ignores_unknown_keys() {
        let d = FeedDecoder::new();
        let line =
            "{\"time\":\"08:00:00\",\"shard\":0,\"kind\":\"cancel\",\"train\":1,\"vendor\":\"x\"}";
        assert!(d.decode_line(line).unwrap().is_some());
    }
}
