//! Property tests for `Profile`, the one piecewise-linear function type:
//! route edges' travel-time functions and arrival profiles alike.
//!
//! The central claim (paper §3.1): connection reduction preserves the
//! function — evaluating the reduced point set gives exactly the minimum
//! over the raw point set, for every query time, absolute times several
//! periods out included. A small period (1000 s) and durations exceeding
//! the period exercise the cyclic corner cases.

use proptest::prelude::*;
use pt_core::{Dur, Period, Profile, ProfilePoint, Time};

const PI: u32 = 1000;

fn period() -> Period {
    Period::new(PI)
}

/// Reference: minimum over the *raw* (unreduced) point set, scanning every
/// point including next-period wraps.
fn raw_min_dur(points: &[(u32, u32)], tau: u32) -> Option<u32> {
    points
        .iter()
        .map(|&(dep, dur)| {
            let wait = if dep >= tau { dep - tau } else { PI + dep - tau };
            wait + dur
        })
        .min()
}

fn raw_points() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..PI, 0..3 * PI), 0..24)
}

/// The reduced profile of raw (departure, duration) points; on a hop,
/// the travel-time function (PLF) the time-dependent graph builds.
fn reduced(points: &[(u32, u32)]) -> Profile {
    Profile::from_unreduced(
        points.iter().map(|&(d, w)| ProfilePoint::new(Time(d), Time(d + w))).collect(),
        period(),
    )
}

proptest! {
    #[test]
    fn plf_construction_is_fifo(pts in raw_points()) {
        prop_assert!(reduced(&pts).is_reduced(period()));
    }

    #[test]
    fn plf_reduction_preserves_function(pts in raw_points(), taus in prop::collection::vec(0..PI, 1..16)) {
        let f = reduced(&pts);
        for tau in taus {
            let fast = f.eval_dur(Time(tau), period());
            match raw_min_dur(&pts, tau) {
                None => prop_assert!(fast.is_infinite()),
                Some(want) => prop_assert_eq!(fast.secs(), want, "tau={}", tau),
            }
        }
    }

    #[test]
    fn plf_fast_eval_matches_exhaustive(pts in raw_points(), tau in 0..4 * PI) {
        // The binary search against a scan of every reduced point.
        let f = reduced(&pts);
        let local = period().local(Time(tau));
        let exhaustive = f.points().iter().map(|q| period().delta(local, q.dep) + q.dur()).min();
        prop_assert_eq!(f.eval_dur(Time(tau), period()), exhaustive.unwrap_or(Dur::INFINITE));
    }

    #[test]
    fn profile_reduction_preserves_function(pts in raw_points(), taus in prop::collection::vec(0..4 * PI, 1..16)) {
        let prof = reduced(&pts);
        prop_assert!(prof.is_reduced(period()));
        for tau in taus {
            let arr = prof.eval_arr(Time(tau), period());
            match raw_min_dur(&pts, tau % PI) {
                None => prop_assert!(arr.is_infinite()),
                Some(want) => prop_assert_eq!(arr.secs(), tau + want, "tau={}", tau),
            }
        }
    }

    #[test]
    fn profile_reduction_is_idempotent(pts in raw_points()) {
        let once = reduced(&pts);
        let twice = Profile::from_unreduced(once.points().to_vec(), period());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn merge_is_pointwise_minimum(a in raw_points(), b in raw_points(), taus in prop::collection::vec(0..PI, 1..16)) {
        let pa = reduced(&a);
        let pb = reduced(&b);
        let mut merged = pa.clone();
        merged.merge(&pb, period());
        prop_assert!(merged.is_reduced(period()));
        for tau in taus {
            let want = pa
                .eval_arr(Time(tau), period())
                .min(pb.eval_arr(Time(tau), period()));
            prop_assert_eq!(merged.eval_arr(Time(tau), period()), want, "tau={}", tau);
        }
    }

    #[test]
    fn link_const_shifts_evaluation(pts in raw_points(), shift in 0..PI, tau in 0..PI) {
        let prof = reduced(&pts);
        let shifted = prof.link_const(Dur(shift));
        let base = prof.eval_arr(Time(tau), period());
        if base.is_infinite() {
            prop_assert!(shifted.eval_arr(Time(tau), period()).is_infinite());
        } else {
            prop_assert_eq!(shifted.eval_arr(Time(tau), period()), base + Dur(shift));
        }
    }

    #[test]
    fn delta_triangle_inequality_cyclic(t1 in 0..PI, t2 in 0..PI, t3 in 0..PI) {
        // Δ(t1,t3) ≤ Δ(t1,t2) + Δ(t2,t3) modulo full periods.
        let p = period();
        let d13 = p.delta(Time(t1), Time(t3)).secs();
        let via = p.delta(Time(t1), Time(t2)).secs() + p.delta(Time(t2), Time(t3)).secs();
        prop_assert_eq!(via % PI, d13 % PI);
        prop_assert!(via >= d13);
    }
}
