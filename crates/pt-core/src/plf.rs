//! Tests of [`Profile`] in its role as a route edge's *piecewise-linear
//! travel-time function* (PLF, paper §2, Fig. 2): the hop's trains given as
//! (departure, duration) points, as the time-dependent graph builds them.

mod tests {
    use crate::{Dur, Period, Profile, ProfilePoint, Time};

    /// A train leaving the hop's tail at `00:dep_min`, taking `dur_min`.
    fn p(dep_min: u32, dur_min: u32) -> ProfilePoint {
        let dep = Time::hm(0, dep_min);
        ProfilePoint::new(dep, dep + Dur::minutes(dur_min))
    }

    fn hop(points: Vec<ProfilePoint>, period: Period) -> Profile {
        Profile::from_unreduced(points, period)
    }

    /// Reference evaluation: the minimum over every point, wrap included.
    fn eval_dur_exhaustive(f: &Profile, t: Time, period: Period) -> Dur {
        let tau = period.local(t);
        f.points().iter().map(|q| period.delta(tau, q.dep) + q.dur()).min().unwrap_or(Dur::INFINITE)
    }

    #[test]
    fn empty_function_is_infinite() {
        let f = hop(vec![], Period::DAY);
        assert!(f.is_empty());
        assert_eq!(f.eval_dur(Time::hm(8, 0), Period::DAY), Dur::INFINITE);
        assert!(f.eval_arr(Time::hm(8, 0), Period::DAY).is_infinite());
    }

    #[test]
    fn eval_waits_for_next_departure() {
        let period = Period::DAY;
        let f = hop(vec![p(10, 5), p(30, 5), p(50, 5)], period);
        // At 00:10 the 00:10 train leaves immediately.
        assert_eq!(f.eval_dur(Time::hm(0, 10), period), Dur::minutes(5));
        // At 00:11 we wait 19 minutes for the 00:30 train.
        assert_eq!(f.eval_dur(Time::hm(0, 11), period), Dur::minutes(24));
    }

    #[test]
    fn eval_wraps_to_next_period() {
        let period = Period::DAY;
        let f = hop(vec![p(10, 5)], period);
        // At 00:20 the next 00:10 train is tomorrow.
        let expect = Dur(23 * 3600 + 50 * 60 + 5 * 60);
        assert_eq!(f.eval_dur(Time::hm(0, 20), period), expect);
    }

    #[test]
    fn eval_accepts_absolute_times() {
        let period = Period::DAY;
        let f = hop(vec![p(10, 5)], period);
        let t = Time::hm(24, 10); // 00:10 the next day
        assert_eq!(f.eval_dur(t, period), Dur::minutes(5));
        assert_eq!(f.eval_arr(t, period), Time::hm(24, 15));
    }

    #[test]
    fn construction_removes_overtaken_trains() {
        let period = Period::DAY;
        // The 00:10 train takes 60 min (arrives 01:10); the 00:20 express
        // takes 10 min (arrives 00:30) and dominates it.
        let f = hop(vec![p(10, 60), p(20, 10)], period);
        assert_eq!(f.points(), &[p(20, 10)]);
        assert!(f.is_reduced(period));
    }

    #[test]
    fn construction_dedupes_equal_departures() {
        let f = hop(vec![p(10, 30), p(10, 20)], Period::DAY);
        assert_eq!(f.points(), &[p(10, 20)]);
    }

    #[test]
    fn equal_arrival_keeps_later_departure() {
        // Both arrive at 00:40; departing later (00:30) dominates.
        let f = hop(vec![p(20, 20), p(30, 10)], Period::DAY);
        assert_eq!(f.points(), &[p(30, 10)]);
    }

    #[test]
    fn exhaustive_matches_fast_eval_on_fifo() {
        let period = Period::new(3600);
        let f = hop(
            [(100, 300), (900, 250), (2000, 700), (3599, 60)]
                .iter()
                .map(|&(dep, dur)| ProfilePoint::new(Time(dep), Time(dep + dur)))
                .collect(),
            period,
        );
        assert!(f.is_reduced(period));
        for t in (0..2 * 3600).step_by(7) {
            assert_eq!(
                f.eval_dur(Time(t), period),
                eval_dur_exhaustive(&f, Time(t), period),
                "mismatch at t={t}"
            );
        }
    }
}
