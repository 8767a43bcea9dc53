//! Delay injection — the *fully dynamic scenario* of the paper (§5.1):
//! because SPCS needs no preprocessing, "we can directly use this approach
//! in a fully dynamic scenario" where trains run late and the timetable
//! changes between queries (Müller-Hannemann, Schnee, Frede '08).
//!
//! [`Timetable::patch_feed`] updates a timetable **in place** from a batch
//! of [`DelayEvent`]s — a train runs late from a given hop onward, with the
//! delay optionally decaying at later stops (catch-up through schedule
//! slack), or its announcements are cancelled (re-announcing the published
//! schedule) — in one pass with a single generation bump; a single delay is
//! the one-event feed.
//! Searches on the patched timetable immediately reflect the disruption;
//! only precomputed distance tables must be refreshed (or dropped — queries
//! then fall back to the stopping criterion, staying correct).
//!
//! [`Timetable::patch_feed`]: crate::Timetable::patch_feed

use pt_core::{ConnId, Dur, TrainId};

/// How a delayed train recovers at subsequent stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// The full delay propagates to every later stop.
    None,
    /// The train catches up `per_hop` at each later hop until on time.
    CatchUp {
        /// Delay recovered per subsequent hop.
        per_hop: Dur,
    },
}

/// One item of a realtime update feed (a GTFS-RT-style stream): either a
/// delay announcement or the *cancellation* of all previous announcements
/// for a train (re-announcing its published schedule times).
///
/// Events are applied in feed order by [`Timetable::patch_feed`]; the result
/// is exactly what applying them as one-event feeds, one after another,
/// would produce, but with one coalesced write-back, one re-sort per touched
/// `conn(S)` bucket, one merged [`ConnId`] remap and a single generation bump.
///
/// [`Timetable::patch_feed`]: crate::Timetable::patch_feed
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayEvent {
    /// `train` runs `delay` late from its `from_hop`-th hop onward,
    /// recovering per [`Recovery`]. The delay shifts departures *and*
    /// arrivals; other trains are untouched (the model has no
    /// vehicle-rotation constraints).
    Delay {
        /// The delayed train.
        train: TrainId,
        /// First hop of the train's journey that runs late.
        from_hop: u16,
        /// The announced delay.
        delay: Dur,
        /// How the train recovers at later hops.
        recovery: Recovery,
    },
    /// All delay announcements for `train` are withdrawn: every hop returns
    /// to its published schedule time.
    Cancel {
        /// The train whose announcements are withdrawn.
        train: TrainId,
    },
}

impl DelayEvent {
    /// The train this event concerns.
    #[inline]
    pub fn train(&self) -> TrainId {
        match *self {
            DelayEvent::Delay { train, .. } | DelayEvent::Cancel { train } => train,
        }
    }
}

/// What [`Timetable::patch_feed`] changed — everything derived structures
/// and distance-table refreshes need to follow a whole feed in one pass,
/// without a rebuild.
///
/// [`Timetable::patch_feed`]: crate::Timetable::patch_feed
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FeedPatch {
    /// `false` iff the feed's *net* effect was nil (every event a no-op, or
    /// events cancelling each other out); the generation is bumped — once —
    /// only when `true`.
    pub changed: bool,
    /// Trains with at least one connection whose time *net*-changed,
    /// sorted, deduplicated.
    pub trains: Vec<TrainId>,
    /// Merged `(old, new)` pairs for every connection whose [`ConnId`] moved
    /// when the touched `conn(S)` buckets were re-sorted by departure time.
    /// A permutation: the old and new id sets are equal. Connections of
    /// trains the feed never mentions can appear too, when they share a
    /// touched bucket.
    pub remapped: Vec<(ConnId, ConnId)>,
}

/// The delay still left `hops_in` hops after the delayed hop. Saturating:
/// an over-large recovery (or hop count) yields zero rather than wrapping —
/// `per_hop · hops_in` can exceed `u32` long before the timetable does.
pub(crate) fn effective_delay(delay: Dur, recovery: Recovery, hops_in: u32) -> Dur {
    match recovery {
        Recovery::None => delay,
        Recovery::CatchUp { per_hop } => {
            Dur(delay.secs().saturating_sub(per_hop.secs().saturating_mul(hops_in)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TimetableBuilder;
    use crate::model::Timetable;
    use pt_core::{Period, StationId, Time};

    fn line() -> (Timetable, Vec<StationId>) {
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> =
            (0..3).map(|i| b.add_named_station(format!("{i}"), Dur::minutes(2))).collect();
        b.add_simple_trip(
            &[s[0], s[1], s[2]],
            Time::hm(8, 0),
            &[Dur::minutes(10), Dur::minutes(10)],
            Dur::ZERO,
        )
        .unwrap();
        b.add_simple_trip(
            &[s[0], s[1], s[2]],
            Time::hm(9, 0),
            &[Dur::minutes(10), Dur::minutes(10)],
            Dur::ZERO,
        )
        .unwrap();
        (b.build().unwrap(), s)
    }

    /// The one-event feed delaying `train` from `from_hop` on.
    fn feed_delay(
        tt: &mut Timetable,
        train: TrainId,
        from_hop: u16,
        delay: Dur,
        recovery: Recovery,
    ) -> FeedPatch {
        tt.patch_feed(&[DelayEvent::Delay { train, from_hop, delay, recovery }])
    }

    /// [`feed_delay`] on a clone.
    fn with_delay(
        tt: &Timetable,
        train: TrainId,
        from_hop: u16,
        delay: Dur,
        recovery: Recovery,
    ) -> Timetable {
        let mut out = tt.clone();
        feed_delay(&mut out, train, from_hop, delay, recovery);
        out
    }

    #[test]
    fn full_delay_shifts_all_later_hops() {
        let (tt, s) = line();
        let delayed = with_delay(&tt, TrainId(0), 0, Dur::minutes(7), Recovery::None);
        let dep0 = delayed.conn(s[0]).iter().find(|c| c.train == TrainId(0)).unwrap();
        assert_eq!(dep0.dep, Time::hm(8, 7));
        let dep1 = delayed.conn(s[1]).iter().find(|c| c.train == TrainId(0)).unwrap();
        assert_eq!(dep1.dep, Time::hm(8, 17));
        assert_eq!(dep1.arr, Time::hm(8, 27));
        // The 09:00 train is untouched.
        assert!(delayed.conn(s[0]).iter().any(|c| c.dep == Time::hm(9, 0)));
    }

    #[test]
    fn catch_up_recovers_per_hop() {
        let (tt, s) = line();
        let delayed = with_delay(
            &tt,
            TrainId(0),
            0,
            Dur::minutes(6),
            Recovery::CatchUp { per_hop: Dur::minutes(6) },
        );
        // Hop 0 delayed 6 min, hop 1 back on schedule.
        let dep0 = delayed.conn(s[0]).iter().find(|c| c.train == TrainId(0)).unwrap();
        assert_eq!(dep0.dep, Time::hm(8, 6));
        let dep1 = delayed.conn(s[1]).iter().find(|c| c.train == TrainId(0)).unwrap();
        assert_eq!(dep1.dep, Time::hm(8, 10));
    }

    #[test]
    fn delay_from_mid_trip_leaves_earlier_hops() {
        let (tt, s) = line();
        let delayed = with_delay(&tt, TrainId(0), 1, Dur::minutes(20), Recovery::None);
        let dep0 = delayed.conn(s[0]).iter().find(|c| c.train == TrainId(0)).unwrap();
        assert_eq!(dep0.dep, Time::hm(8, 0)); // first hop punctual
        let dep1 = delayed.conn(s[1]).iter().find(|c| c.train == TrainId(0)).unwrap();
        assert_eq!(dep1.dep, Time::hm(8, 30));
    }

    #[test]
    fn catch_up_recovery_uses_checked_math() {
        // Regression: `per_hop.secs() * hops_in` used to overflow u32. With
        // per_hop > u32::MAX / 2 and hops_in = 2 the product wrapped to a
        // tiny value, so the train stayed delayed where the recovery should
        // long have absorbed the delay.
        let mut b = TimetableBuilder::new(Period::DAY);
        let s: Vec<_> = (0..4).map(|i| b.add_named_station(format!("{i}"), Dur::ZERO)).collect();
        b.add_simple_trip(
            &[s[0], s[1], s[2], s[3]],
            Time::hm(8, 0),
            &[Dur::minutes(10), Dur::minutes(10), Dur::minutes(10)],
            Dur::ZERO,
        )
        .unwrap();
        let tt = b.build().unwrap();
        let huge = Dur(u32::MAX / 2 + 1);
        let delayed =
            with_delay(&tt, TrainId(0), 0, Dur::minutes(7), Recovery::CatchUp { per_hop: huge });
        // Hop 0 carries the delay; hops 1 and 2 (hops_in = 1, 2) are fully
        // recovered — hops_in = 2 is the overflowing product.
        let dep = |h: usize| {
            delayed.conn(s[h]).iter().find(|c| c.train == TrainId(0)).map(|c| c.dep).unwrap()
        };
        assert_eq!(dep(0), Time::hm(8, 7));
        assert_eq!(dep(1), Time::hm(8, 10));
        assert_eq!(dep(2), Time::hm(8, 20));
    }

    #[test]
    fn one_event_feed_bumps_generation_and_keeps_order() {
        let (tt, s) = line();
        let mut patched = tt.clone();
        assert_eq!(patched.generation(), 0);
        let patch = feed_delay(&mut patched, TrainId(0), 0, Dur::minutes(70), Recovery::None);
        assert!(patch.changed);
        assert_eq!(patched.generation(), 1);
        // The delayed 08:00 train now departs 09:10, after the 09:00 train:
        // the bucket re-sorted, so ids moved and the remap records it.
        assert!(!patch.remapped.is_empty());
        for st in [s[0], s[1]] {
            let deps: Vec<_> = patched.conn(st).iter().map(|c| c.dep).collect();
            assert!(deps.windows(2).all(|w| w[0] <= w[1]), "conn({st}) no longer sorted");
        }
        // The remap is a permutation: each new id holds the connection
        // (identified by train and hop) that used to live at the old id.
        for &(old, new) in &patch.remapped {
            let (before, after) = (tt.connection(old), patched.connection(new));
            assert_eq!((before.train, before.seq), (after.train, after.seq), "ids must follow");
        }
        // Equivalent to patching a clone.
        let pure = with_delay(&tt, TrainId(0), 0, Dur::minutes(70), Recovery::None);
        assert_eq!(pure.connections(), patched.connections());
    }

    #[test]
    fn one_event_feed_noop_leaves_generation() {
        let (tt, _) = line();
        let mut patched = tt.clone();
        // Unknown train, hop out of range, zero delay, fully recovered delay.
        for (train, hop, delay, rec) in [
            (TrainId(99), 0, Dur::minutes(5), Recovery::None),
            (TrainId(0), 9, Dur::minutes(5), Recovery::None),
            (TrainId(0), 0, Dur::ZERO, Recovery::None),
        ] {
            let patch = feed_delay(&mut patched, train, hop, delay, rec);
            assert!(!patch.changed);
            assert!(patch.remapped.is_empty());
        }
        assert_eq!(patched.generation(), 0);
        assert_eq!(patched.connections(), tt.connections());
    }

    #[test]
    fn patch_feed_equals_sequential_patches_with_one_bump() {
        let (tt, _) = line();
        // Feed: delay train 0, delay train 1, pile a second delay onto
        // train 0 (coalesced per train), cancel train 1 (net no-op for it).
        let events = [
            DelayEvent::Delay {
                train: TrainId(0),
                from_hop: 0,
                delay: Dur::minutes(5),
                recovery: Recovery::None,
            },
            DelayEvent::Delay {
                train: TrainId(1),
                from_hop: 1,
                delay: Dur::minutes(9),
                recovery: Recovery::None,
            },
            DelayEvent::Delay {
                train: TrainId(0),
                from_hop: 1,
                delay: Dur::minutes(3),
                recovery: Recovery::None,
            },
            DelayEvent::Cancel { train: TrainId(1) },
        ];
        let mut batched = tt.clone();
        let patch = batched.patch_feed(&events);
        assert!(patch.changed);
        assert_eq!(patch.trains, vec![TrainId(0)], "train 1's events cancelled out");
        assert_eq!(batched.generation(), 1, "a feed costs exactly one bump");

        let mut sequential = tt.clone();
        for event in events {
            sequential.patch_feed(&[event]);
        }
        assert_eq!(batched.connections(), sequential.connections());

        // The merged remap is a valid permutation: ids follow their conns.
        for &(old, new) in &patch.remapped {
            let (before, after) = (tt.connection(old), batched.connection(new));
            assert_eq!((before.train, before.seq), (after.train, after.seq));
        }
    }

    #[test]
    fn net_nil_feed_is_a_no_op() {
        let (tt, _) = line();
        let mut patched = tt.clone();
        let events = [
            DelayEvent::Delay {
                train: TrainId(0),
                from_hop: 0,
                delay: Dur::minutes(12),
                recovery: Recovery::None,
            },
            DelayEvent::Cancel { train: TrainId(0) },
        ];
        // The delay alone moves departures…
        assert!(tt.clone().patch_feed(&events[..1]).changed);
        // …but the pair nets out: no bump, no remap, identical conns.
        assert_eq!(patched.patch_feed(&events), FeedPatch::default());
        assert_eq!(patched.generation(), 0);
        assert_eq!(patched.connections(), tt.connections());
    }

    #[test]
    fn cancel_of_never_delayed_train_is_unchanged() {
        let (tt, _) = line();
        let mut patched = tt.clone();
        let patch = patched.patch_feed(&[DelayEvent::Cancel { train: TrainId(0) }]);
        assert!(!patch.changed);
        assert_eq!(patched.generation(), 0);
        assert_eq!(patched.connections(), tt.connections());
    }

    #[test]
    fn cancel_restores_schedule_after_resorts_and_roundtrips() {
        let (tt, s) = line();
        let mut patched = tt.clone();
        // +70 min pushes the 08:00 train behind the 09:00 one: buckets
        // re-sort, ConnIds move — the schedule times must move with them.
        feed_delay(&mut patched, TrainId(0), 0, Dur::minutes(70), Recovery::None);
        let delayed_conns = patched.connections().to_vec();
        let patch = patched.patch_feed(&[DelayEvent::Cancel { train: TrainId(0) }]);
        assert!(patch.changed);
        assert_eq!(patched.connections(), tt.connections(), "cancel restores the schedule");
        for st in [s[0], s[1]] {
            for (c, id) in patched.conn(st).iter().zip(patched.conn_ids(st)) {
                assert_eq!(patched.scheduled_dep(pt_core::ConnId(id)), c.dep);
            }
        }
        // Re-announcing the same delay round-trips to the delayed state.
        feed_delay(&mut patched, TrainId(0), 0, Dur::minutes(70), Recovery::None);
        assert_eq!(patched.connections(), delayed_conns.as_slice());
    }

    #[test]
    fn empty_feed_is_unchanged() {
        let (tt, _) = line();
        let mut patched = tt.clone();
        let patch = patched.patch_feed(&[]);
        assert_eq!(patch, FeedPatch::default());
        assert_eq!(patched.generation(), 0);
    }

    #[test]
    fn delay_past_midnight_stays_periodic() {
        let mut b = TimetableBuilder::new(Period::DAY);
        let a = b.add_named_station("A", Dur::ZERO);
        let c = b.add_named_station("B", Dur::ZERO);
        b.add_simple_trip(&[a, c], Time::hm(23, 50), &[Dur::minutes(20)], Dur::ZERO).unwrap();
        let tt = b.build().unwrap();
        let delayed = with_delay(&tt, TrainId(0), 0, Dur::minutes(30), Recovery::None);
        let conn = &delayed.conn(a)[0];
        // 23:50 + 30 min wraps to 00:20 next day, period-local.
        assert_eq!(conn.dep, Time::hm(0, 20));
        assert_eq!(conn.dur(), Dur::minutes(20));
    }
}
