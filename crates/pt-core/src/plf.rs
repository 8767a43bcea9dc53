//! Piecewise-linear travel-time functions (paper, §2, Fig. 2).
//!
//! A time-dependent route edge carries a function `f : Π → N0` where `f(τ)`
//! is the travel time when reaching the edge's tail at time `τ`: the waiting
//! time for the next good elementary connection plus that connection's
//! duration. Such a function is fully described by its *connection points*
//! `P(f) ⊂ Π × N0`: pairs `(τ_f, w_f)` of a (period-local) departure time and
//! a duration, with
//!
//! ```text
//! f(τ) = min over (τ_f, w_f) ∈ P(f) of  Δ(τ, τ_f) + w_f .
//! ```
//!
//! If the function has the FIFO property (waiting never pays off — true for
//! all networks the paper evaluates, and enforced by
//! [`Plf::from_points`]), the minimizer is simply the next departure at or
//! after `τ`, which [`Plf::eval_dur`] finds with one binary search.

use serde::{Deserialize, Serialize};

use crate::time::{Dur, Period, Time};

/// One connection point `(τ_f, w_f)` of a travel-time function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PlfPoint {
    /// Period-local departure time `τ_f`.
    pub dep: Time,
    /// Travel duration `w_f` when departing exactly at `dep`.
    pub dur: Dur,
}

impl PlfPoint {
    /// Creates a connection point.
    #[inline]
    pub const fn new(dep: Time, dur: Dur) -> Self {
        PlfPoint { dep, dur }
    }

    /// Arrival (relative to the departure's period) `dep + dur`.
    #[inline]
    pub fn arr(self) -> Time {
        self.dep + self.dur
    }
}

/// A piecewise-linear travel-time function, stored as its connection points
/// sorted strictly increasing by departure time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Plf {
    points: Vec<PlfPoint>,
}

impl Plf {
    /// An empty function: no connection ever serves this edge (`f ≡ ∞`).
    pub const EMPTY: Plf = Plf { points: Vec::new() };

    /// Builds a FIFO travel-time function from arbitrary connection points.
    ///
    /// The points are sorted by departure time; among points with equal
    /// departure time only the fastest survives; finally, points that are
    /// *dominated* (an earlier departure that arrives no earlier than a later
    /// one — e.g. a slow train overtaken by an express) are removed, so the
    /// result always satisfies FIFO. All departures must be period-local.
    pub fn from_points(mut points: Vec<PlfPoint>, period: Period) -> Self {
        for p in &points {
            assert!(
                period.contains(p.dep),
                "PLF departure {} not period-local (π = {})",
                p.dep,
                period.len()
            );
            assert!(!p.dur.is_infinite(), "PLF duration must be finite");
        }
        points.sort_unstable_by_key(|p| (p.dep, p.dur));
        points.dedup_by_key(|p| p.dep); // keeps the first = fastest per dep

        // Backward dominance scan (the paper's connection reduction applied
        // to an edge function): keep a point only if it arrives strictly
        // earlier than every later departure's arrival.
        let mut reduced: Vec<PlfPoint> = Vec::with_capacity(points.len());
        let mut min_arr = Time(u32::MAX);
        for &p in points.iter().rev() {
            if p.arr() < min_arr {
                min_arr = p.arr();
                reduced.push(p);
            }
        }
        reduced.reverse();
        // Cyclic fixup the paper's linear scan misses: a point can also be
        // dominated by the *next period's* first point (arriving before
        // `π + arr₀`). Removing those makes next-departure evaluation exact.
        if let Some(first) = reduced.first() {
            let threshold = first.arr() + Dur(period.len());
            reduced.retain(|p| p.arr() < threshold);
        }
        Plf { points: reduced }
    }

    /// The connection points, sorted strictly increasing by departure.
    #[inline]
    pub fn points(&self) -> &[PlfPoint] {
        &self.points
    }

    /// Number of connection points `|P(f)|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff no connection serves this edge.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Checks sortedness and the (cyclic) FIFO property: departures strictly
    /// increasing, arrivals strictly increasing, and no point dominated by
    /// the next period's first point.
    pub fn is_fifo(&self, period: Period) -> bool {
        self.points.iter().all(|p| period.contains(p.dep))
            && self.points.windows(2).all(|w| w[0].dep < w[1].dep && w[0].arr() < w[1].arr())
            && match (self.points.first(), self.points.last()) {
                (Some(f), Some(l)) => l.arr() < f.arr() + Dur(period.len()),
                _ => true,
            }
    }

    /// Evaluates `f` at the *absolute* time `t`: waiting time for the next
    /// departure (cyclically) plus its duration. Returns `Dur::INFINITE` on
    /// an empty function.
    ///
    /// Correct for FIFO functions, which `from_points` guarantees.
    #[inline]
    pub fn eval_dur(&self, t: Time, period: Period) -> Dur {
        if self.points.is_empty() {
            return Dur::INFINITE;
        }
        let tau = period.local(t);
        // First point departing at or after τ.
        let i = self.points.partition_point(|p| p.dep < tau);
        if let Some(p) = self.points.get(i) {
            period.delta(tau, p.dep) + p.dur
        } else {
            // Wrap around to the first departure of the next period.
            let p = self.points[0];
            period.delta(tau, p.dep) + p.dur
        }
    }

    /// Evaluates `f` at absolute time `t` and returns the absolute arrival
    /// time `t + f(t)`, or [`crate::INFINITY`] if the edge is never served.
    #[inline]
    pub fn eval_arr(&self, t: Time, period: Period) -> Time {
        let d = self.eval_dur(t, period);
        if d.is_infinite() {
            crate::INFINITY
        } else {
            t + d
        }
    }

    /// Reference evaluation minimizing over *all* connection points — valid
    /// even for non-FIFO point sets. Used by tests and debug assertions.
    pub fn eval_dur_exhaustive(&self, t: Time, period: Period) -> Dur {
        let tau = period.local(t);
        self.points.iter().map(|p| period.delta(tau, p.dep) + p.dur).min().unwrap_or(Dur::INFINITE)
    }

    /// The minimum duration over all connection points — a valid lower bound
    /// on `f`, used as the scalar weight of the station graph during
    /// contraction.
    pub fn min_dur(&self) -> Dur {
        self.points.iter().map(|p| p.dur).min().unwrap_or(Dur::INFINITE)
    }

    /// The maximum duration over all connection points (`Dur::ZERO` on an
    /// empty function) — an upper bound on the travel component of a single
    /// relaxation, used to size the kernel's bucket ring.
    pub fn max_dur(&self) -> Dur {
        self.points.iter().map(|p| p.dur).max().unwrap_or(Dur::ZERO)
    }

    /// [`Plf::eval_arr`] on raw seconds for the SoA kernel lanes: absolute
    /// arrival seconds, `u32::MAX` if the edge is never served.
    #[inline]
    pub fn eval_arr_secs(&self, t_secs: u32, period: Period) -> u32 {
        self.eval_arr(Time(t_secs), period).secs()
    }

    /// Heap + inline memory footprint in bytes (for the space columns of
    /// Table 2).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.points.capacity() * std::mem::size_of::<PlfPoint>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(dep_min: u32, dur_min: u32) -> PlfPoint {
        PlfPoint::new(Time::hm(0, dep_min), Dur::minutes(dur_min))
    }

    #[test]
    fn empty_function_is_infinite() {
        let f = Plf::EMPTY;
        assert!(f.is_empty());
        assert_eq!(f.eval_dur(Time::hm(8, 0), Period::DAY), Dur::INFINITE);
        assert!(f.eval_arr(Time::hm(8, 0), Period::DAY).is_infinite());
    }

    #[test]
    fn eval_waits_for_next_departure() {
        let period = Period::DAY;
        let f = Plf::from_points(vec![p(10, 5), p(30, 5), p(50, 5)], period);
        // At 00:10 the 00:10 train leaves immediately.
        assert_eq!(f.eval_dur(Time::hm(0, 10), period), Dur::minutes(5));
        // At 00:11 we wait 19 minutes for the 00:30 train.
        assert_eq!(f.eval_dur(Time::hm(0, 11), period), Dur::minutes(24));
    }

    #[test]
    fn eval_wraps_to_next_period() {
        let period = Period::DAY;
        let f = Plf::from_points(vec![p(10, 5)], period);
        // At 00:20 the next 00:10 train is tomorrow.
        let expect = Dur(23 * 3600 + 50 * 60 + 5 * 60);
        assert_eq!(f.eval_dur(Time::hm(0, 20), period), expect);
    }

    #[test]
    fn eval_accepts_absolute_times() {
        let period = Period::DAY;
        let f = Plf::from_points(vec![p(10, 5)], period);
        let t = Time::hm(24, 10); // 00:10 the next day
        assert_eq!(f.eval_dur(t, period), Dur::minutes(5));
        assert_eq!(f.eval_arr(t, period), Time::hm(24, 15));
    }

    #[test]
    fn construction_removes_overtaken_trains() {
        let period = Period::DAY;
        // The 00:10 train takes 60 min (arrives 01:10); the 00:20 express
        // takes 10 min (arrives 00:30) and dominates it.
        let f = Plf::from_points(vec![p(10, 60), p(20, 10)], period);
        assert_eq!(f.points(), &[p(20, 10)]);
        assert!(f.is_fifo(period));
    }

    #[test]
    fn construction_dedupes_equal_departures() {
        let period = Period::DAY;
        let f = Plf::from_points(vec![p(10, 30), p(10, 20)], period);
        assert_eq!(f.points(), &[p(10, 20)]);
    }

    #[test]
    fn equal_arrival_keeps_later_departure() {
        let period = Period::DAY;
        // Both arrive at 00:40; departing later (00:30) dominates.
        let f = Plf::from_points(vec![p(20, 20), p(30, 10)], period);
        assert_eq!(f.points(), &[p(30, 10)]);
    }

    #[test]
    fn min_dur_lower_bounds_eval() {
        let period = Period::DAY;
        let f = Plf::from_points(vec![p(10, 7), p(40, 3), p(55, 9)], period);
        let lb = f.min_dur();
        for m in 0..60 {
            assert!(f.eval_dur(Time::hm(0, m), period) >= lb);
        }
    }

    #[test]
    #[should_panic(expected = "not period-local")]
    fn non_local_departure_rejected() {
        let _ =
            Plf::from_points(vec![PlfPoint::new(Time::hm(25, 0), Dur::minutes(5))], Period::DAY);
    }

    #[test]
    fn exhaustive_matches_fast_eval_on_fifo() {
        let period = Period::new(3600);
        let f = Plf::from_points(
            vec![
                PlfPoint::new(Time(100), Dur(300)),
                PlfPoint::new(Time(900), Dur(250)),
                PlfPoint::new(Time(2000), Dur(700)),
                PlfPoint::new(Time(3599), Dur(60)),
            ],
            period,
        );
        assert!(f.is_fifo(period));
        for t in (0..3600).step_by(7) {
            assert_eq!(
                f.eval_dur(Time(t), period),
                f.eval_dur_exhaustive(Time(t), period),
                "mismatch at t={t}"
            );
        }
    }
}
