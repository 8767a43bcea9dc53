//! The decoder's quarantine contract, end to end: malformed input is a
//! *typed error with a stable kind label* — never a panic, never a dropped
//! driver — and well-formed input survives an encode/decode round trip on
//! both wire shapes (CSV and JSON lines).

use proptest::prelude::*;

use best_connections::feed::{
    encode_csv, encode_json, FeedDecoder, FlakySource, Quarantine, RecordedFeed, SourceError,
};
use best_connections::prelude::*;
use best_connections::timetable::synthetic::presets::all_presets;

/// A decoder validating against a 3-shard roster of 8 trains each.
fn roster_decoder() -> FeedDecoder {
    FeedDecoder::with_roster(vec![8, 8, 8])
}

/// Every quarantine kind, exercised by at least one hand-written line.
#[test]
fn malformed_battery_has_stable_kinds() {
    let dec = roster_decoder();
    let battery: &[(&str, &str)] = &[
        // truncated: fields missing for the kind
        ("08:00:00,0,delay,1,0", "truncated"),
        ("08:00:00,0,cancel", "truncated"),
        ("08:00:00", "truncated"),
        // bad_time: not a clock reading
        ("8am,0,delay,1,0,60,0", "bad_time"),
        ("25:99:00,0,delay,1,0,60,0", "bad_time"),
        ("99:00:00,0,cancel,1", "bad_time"),
        ("::,0,cancel,1", "bad_time"),
        // bad_field: numeric fields that aren't
        ("08:00:00,zero,delay,1,0,60,0", "bad_field"),
        ("08:00:00,0,delay,one,0,60,0", "bad_field"),
        ("08:00:00,0,delay,1,x,60,0", "bad_field"),
        ("08:00:00,0,delay,1,0,-60,0", "bad_field"),
        // unknown_kind
        ("08:00:00,0,detour,1,0,60,0", "unknown_kind"),
        ("08:00:00,0,DELAY,1,0,60,0", "unknown_kind"),
        // roster violations
        ("08:00:00,7,cancel,1", "unknown_shard"),
        ("08:00:00,2,cancel,8", "unknown_train"),
        ("08:00:00,0,delay,99,0,60,0", "unknown_train"),
        // bad_json: structurally broken JSON lines
        ("{\"time\":\"08:00:00\"", "bad_json"),
        ("{time: 1}", "bad_json"),
        ("{\"time\":\"08:00:00\",}", "bad_json"),
        ("{\"time\":\"08:00:00\"} trailing", "bad_json"),
    ];
    for (line, want) in battery {
        match dec.decode_line(line) {
            Err(e) => assert_eq!(&e.kind(), want, "line {line:?} → {e}"),
            Ok(got) => panic!("line {line:?} decoded as {got:?}, expected {want}"),
        }
    }
    // Sanity: each kind in the battery is a real counter label.
    let mut q = Quarantine::default();
    for (i, (line, _)) in battery.iter().enumerate() {
        q.push(i as u64, line, dec.decode_line(line).unwrap_err());
    }
    assert_eq!(q.total, battery.len() as u64);
    for kind in [
        "truncated",
        "bad_time",
        "bad_field",
        "unknown_kind",
        "unknown_shard",
        "unknown_train",
        "bad_json",
    ] {
        assert!(q.count(kind) > 0, "battery never hit {kind}");
    }
}

#[test]
fn blanks_and_comments_are_skipped_not_quarantined() {
    let dec = roster_decoder();
    for line in ["", "   ", "\t", "# a comment", "  # indented comment"] {
        assert_eq!(dec.decode_line(line), Ok(None), "line {line:?}");
    }
}

/// A valid event for round-trip and mutation fuzzing, derived from a seed.
fn event_from(seed: u64) -> WireEvent {
    let train = TrainId((seed % 8) as u32);
    let event = if seed.is_multiple_of(3) {
        DelayEvent::Cancel { train }
    } else {
        DelayEvent::Delay {
            train,
            from_hop: ((seed >> 8) % 12) as u16,
            delay: Dur(60 + (seed % 3600) as u32),
            recovery: if seed.is_multiple_of(2) {
                Recovery::None
            } else {
                Recovery::CatchUp { per_hop: Dur(1 + (seed % 300) as u32) }
            },
        }
    };
    WireEvent {
        time: Time(((seed >> 4) % (48 * 3600)) as u32),
        shard: ShardId(((seed >> 2) % 3) as u32),
        event,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    // encode → decode is the identity, on both wire shapes.
    #[test]
    fn round_trip_csv_and_json(seed in 0u64..u64::MAX) {
        let dec = roster_decoder();
        let ev = event_from(seed);
        for line in [encode_csv(&ev), encode_json(&ev)] {
            match dec.decode_line(&line) {
                Ok(Some(back)) => prop_assert_eq!(back, ev, "via {}", line),
                other => prop_assert!(false, "line {:?} decoded as {:?}", line, other),
            }
        }
    }

    // Mutation fuzz: truncating a valid line anywhere, or stomping one
    // byte, must yield Ok or a typed Err — the decoder must not panic and
    // must not loop. (A mutated line *may* still decode; that's fine.)
    #[test]
    fn decoder_survives_truncations_and_bitflips(seed in 0u64..u64::MAX) {
        let dec = roster_decoder();
        let ev = event_from(seed);
        for line in [encode_csv(&ev), encode_json(&ev)] {
            for cut in 0..=line.len() {
                let _ = dec.decode_line(&line[..cut]);
            }
            let bytes = line.as_bytes();
            for pos in 0..bytes.len() {
                let mut mutated = bytes.to_vec();
                mutated[pos] = (seed >> (pos % 56)) as u8;
                let _ = dec.decode_line(&String::from_utf8_lossy(&mutated));
            }
        }
    }

    // Garbage fuzz: arbitrary byte soup (including unicode salvage from
    // lossy conversion) never panics the decoder.
    #[test]
    fn decoder_survives_arbitrary_bytes(seed in 0u64..u64::MAX, len in 0usize..120) {
        let dec = roster_decoder();
        let mut x = seed | 1;
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                // xorshift64 — cheap deterministic byte soup.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let _ = dec.decode_line(&String::from_utf8_lossy(&bytes));
        // A leading '{' forces the JSON path; a leading digit the CSV path.
        let _ = dec.decode_line(&format!("{{{}", String::from_utf8_lossy(&bytes)));
        let _ = dec.decode_line(&format!("0{}", String::from_utf8_lossy(&bytes)));
    }
}

/// The driver-level contract: quarantined lines are counted and sampled,
/// the rest of the stream still applies, and the source's transient
/// hiccups are retried — all visible in the final [`FeedStats`].
#[test]
fn driver_quarantines_and_keeps_going() {
    let nets: Vec<Network> =
        all_presets(0.05).into_iter().take(2).map(|p| Network::new(p.timetable)).collect();
    let svc = ShardedService::builder().build(nets);

    let good = |i: u32| {
        encode_csv(&WireEvent {
            time: Time::hm(6 + i, 0),
            shard: ShardId(i % 2),
            event: DelayEvent::Delay {
                train: TrainId(0),
                from_hop: 0,
                delay: Dur::minutes(5 + i),
                recovery: Recovery::None,
            },
        })
    };
    let lines = vec![
        "# recorded with two bad lines in the middle".to_string(),
        good(0),
        "6:61:00,0,delay,0,0,60,0".to_string(), // bad_time
        good(1),
        "07:00:00,0,delay,999999,0,60,0".to_string(), // unknown_train
        good(2),
        String::new(), // blank — skipped, not quarantined
        good(3),
    ];
    let total_lines = lines.len() as u64;

    // Every 3rd poll fails transiently; the driver's retry budget absorbs it.
    let mut src = FlakySource::new(RecordedFeed::new(lines, 2), 3);
    let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
    let stats = driver.run(&mut src).expect("transient errors are retried");

    assert_eq!(stats.lines, total_lines);
    assert_eq!(stats.events_decoded, 4);
    assert_eq!(stats.events_applied, 4, "good events apply despite quarantined neighbours");
    assert_eq!(stats.quarantine.total, 2);
    assert_eq!(stats.quarantine.count("bad_time"), 1);
    assert_eq!(stats.quarantine.count("unknown_train"), 1);
    assert!(stats.transient_errors > 0, "the flaky source really did hiccup");
    assert!(
        !stats.quarantine.samples.is_empty() && stats.quarantine.samples.len() <= 2,
        "samples are kept, bounded"
    );
    // Conservation: every line is decoded, quarantined, or a skipped
    // blank/comment — nothing vanishes.
    assert!(stats.events_decoded + stats.quarantine.total <= stats.lines);
    assert_eq!(
        stats.lines - stats.events_decoded - stats.quarantine.total,
        2, // the comment and the blank
    );

    // The same day without its bad lines is clean: nothing is quarantined
    // and every event applies.
    let clean: Vec<String> = (0..4).map(good).collect();
    let stats = FeedDriver::new(&svc, FeedDriverConfig::replay())
        .run(&mut RecordedFeed::new(clean, 2))
        .expect("a recorded feed never fails");
    assert!(stats.quarantine.is_empty());
    assert_eq!((stats.events_decoded, stats.events_applied), (4, 4));
}

#[test]
fn driver_stops_on_permanent_source_failure() {
    struct Dead;
    impl best_connections::feed::FeedSource for Dead {
        fn poll(&mut self) -> Result<best_connections::feed::FeedPoll, SourceError> {
            Err(SourceError::permanent("socket gone"))
        }
    }
    let nets: Vec<Network> =
        all_presets(0.05).into_iter().take(2).map(|p| Network::new(p.timetable)).collect();
    let svc = ShardedService::builder().build(nets);
    let mut driver = FeedDriver::new(&svc, FeedDriverConfig::replay());
    let err = driver.run(&mut Dead).expect_err("permanent failures are fatal");
    assert!(err.to_string().contains("socket gone"));
}
