//! Arrival profiles `dist(S, T, ·)` and the paper's *connection reduction*.
//!
//! A profile search computes, for a source station `S` and every target `T`,
//! the function mapping each departure time `τ ∈ Π` to the earliest arrival
//! at `T`. Equation (1) of the paper bounds its connection points by the
//! outgoing connections of `S`:
//!
//! ```text
//! P(dist(S,T,·)) ⊆ { (τdep(c), dist(S,T,τdep(c))) | c ∈ conn(S) }  =: P̂
//! ```
//!
//! `P̂` in general violates FIFO — taking an *earlier* train in the wrong
//! direction can arrive *later* than a later train in the right direction —
//! so the paper reduces it with a backward scan that deletes every point
//! whose arrival is not strictly earlier than the best arrival among later
//! departures. [`Profile::from_unreduced`] implements exactly that scan.
//!
//! A route edge's travel-time function (paper §2, Fig. 2) is the same kind
//! of point set: one point per train serving the hop, departing its tail at
//! `dep` and reaching its head at `arr`. Evaluating `f` at `τ` means taking
//! the next departure at or after `τ`, which is [`Profile::eval_arr`]; so
//! the time-dependent graph stores its hops as `Profile`s, and the
//! label-correcting baseline links a profile over a hop with
//! [`Profile::link_profile`] and a zero buffer.

use serde::{Deserialize, Serialize};

use crate::time::{Dur, Period, Time, INFINITY};

/// One point of an arrival profile: departing `S` at (period-local) `dep`
/// arrives at the target at absolute time `arr` (`arr − dep` is the travel
/// duration; `arr` may exceed the period for overnight itineraries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ProfilePoint {
    /// Period-local departure time at the source station.
    pub dep: Time,
    /// Absolute arrival time at the target (`≥ dep`).
    pub arr: Time,
}

impl ProfilePoint {
    /// Creates a profile point; `arr` must not precede `dep`.
    #[inline]
    pub fn new(dep: Time, arr: Time) -> Self {
        debug_assert!(arr >= dep, "arrival {arr} before departure {dep}");
        ProfilePoint { dep, arr }
    }

    /// Travel duration `arr − dep`.
    #[inline]
    pub fn dur(self) -> Dur {
        self.arr - self.dep
    }
}

/// A reduced (FIFO) arrival profile: departures strictly increasing,
/// arrivals strictly increasing.
///
/// An empty profile means the target is unreachable.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Profile {
    points: Vec<ProfilePoint>,
}

impl Profile {
    /// The unreachable profile.
    pub const EMPTY: Profile = Profile { points: Vec::new() };

    /// Connection reduction (paper, §3.1): builds a reduced profile from the
    /// raw point set `P̂`, in the allocation of `points`. Points with
    /// infinite arrival are dropped; among equal departures the earliest
    /// arrival wins; a backward scan keeps a point only if its arrival is
    /// strictly earlier than the minimum arrival of all later departures;
    /// and a cyclic fix-up the paper's linear scan misses drops the points
    /// the next period's first point dominates (arriving no earlier than
    /// `π + arr₀`), so that next-departure evaluation is exact. Every
    /// departure must be period-local.
    pub fn from_unreduced(mut points: Vec<ProfilePoint>, period: Period) -> Self {
        reduce(&mut points, period);
        Profile { points }
    }

    /// Scratch-reusing variant of [`Profile::from_unreduced`] for the merge
    /// kernels: reduces the points accumulated in `scratch` (clearing it but
    /// keeping its capacity for the next station) and allocates only the
    /// reduced result, at its exact size. Semantically identical to
    /// `Profile::from_unreduced(scratch.clone(), period)`.
    pub fn from_unreduced_in(scratch: &mut Vec<ProfilePoint>, period: Period) -> Self {
        reduce(scratch, period);
        let points = scratch.to_vec();
        scratch.clear();
        Profile { points }
    }

    /// The connection points, sorted strictly increasing by departure.
    #[inline]
    pub fn points(&self) -> &[ProfilePoint] {
        &self.points
    }

    /// Number of connection points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` iff the target is unreachable.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Checks the reduced-profile invariant (sorted, strictly dominating,
    /// period-local departures) — i.e. the FIFO property of the paper.
    pub fn is_reduced(&self, period: Period) -> bool {
        self.points.iter().all(|p| period.contains(p.dep) && p.arr >= p.dep && !p.arr.is_infinite())
            && self.points.windows(2).all(|w| w[0].dep < w[1].dep && w[0].arr < w[1].arr)
            && match (self.points.first(), self.points.last()) {
                (Some(f), Some(l)) => l.arr < f.arr + Dur(period.len()),
                _ => true,
            }
    }

    /// Earliest absolute arrival when departing the source at absolute time
    /// `t`; [`INFINITY`] if unreachable. One binary search on a reduced
    /// profile.
    #[inline]
    pub fn eval_arr(&self, t: Time, period: Period) -> Time {
        if self.points.is_empty() {
            return INFINITY;
        }
        let tau = period.local(t);
        let i = self.points.partition_point(|p| p.dep < tau);
        let p = self.points.get(i).copied().unwrap_or(self.points[0]);
        // wait Δ(τ, dep) + travel (arr − dep)
        t + period.delta(tau, p.dep) + p.dur()
    }

    /// Travel duration (waiting included) when departing at absolute `t`.
    pub fn eval_dur(&self, t: Time, period: Period) -> Dur {
        let arr = self.eval_arr(t, period);
        if arr.is_infinite() {
            Dur::INFINITE
        } else {
            arr - t
        }
    }

    /// Pointwise minimum with `other` (both reduced); returns `true` iff
    /// `self` changed. This is the profile-merge of the label-correcting
    /// baseline.
    pub fn merge(&mut self, other: &Profile, period: Period) -> bool {
        if other.is_empty() {
            return false;
        }
        if self.is_empty() {
            self.points = other.points.clone();
            return true;
        }
        // Fast path: nothing in `other` can improve `self`.
        if self.dominates(other, period) {
            return false;
        }
        let mut union = Vec::with_capacity(self.points.len() + other.points.len());
        union.extend_from_slice(&self.points);
        union.extend_from_slice(&other.points);
        let merged = Profile::from_unreduced(union, period);
        let changed = merged != *self;
        *self = merged;
        changed
    }

    /// `eval_arr` for a period-local departure, avoiding the absolute-time
    /// normalization.
    #[inline]
    fn eval_arr_local(&self, tau: Time, period: Period) -> Time {
        debug_assert!(period.contains(tau));
        if self.points.is_empty() {
            return INFINITY;
        }
        let i = self.points.partition_point(|p| p.dep < tau);
        let p = self.points.get(i).copied().unwrap_or(self.points[0]);
        tau + period.delta(tau, p.dep) + p.dur()
    }

    /// Propagates the profile through a constant edge of duration `d`.
    /// Stays reduced, so no re-reduction is needed.
    pub fn link_const(&self, d: Dur) -> Profile {
        Profile {
            points: self.points.iter().map(|p| ProfilePoint::new(p.dep, p.arr + d)).collect(),
        }
    }

    /// Composes two legs of a journey through an intermediate station:
    /// `self` is the profile *to* the junction, `next` the profile *onward*
    /// from it, and `buffer` the junction's transfer time (the continuation
    /// always changes vehicles there). Each point `(dep, arr)` becomes
    /// `(dep, next(arr + buffer))` — evaluated on absolute arrivals, so
    /// overnight first legs wrap correctly — and the result is reduced.
    ///
    /// This is the stitch primitive of the cross-shard gateway: with
    /// `self = dist(S, B, ·)` and `next = dist(B, T, ·)` the result is the
    /// exact profile of all `S → B → T` journeys changing trains at `B`.
    pub fn link_profile(&self, next: &Profile, buffer: Dur, period: Period) -> Profile {
        let linked: Vec<ProfilePoint> = self
            .points
            .iter()
            .map(|p| (p.dep, next.eval_arr(p.arr + buffer, period)))
            .filter(|&(_, arr)| !arr.is_infinite())
            .map(|(dep, arr)| ProfilePoint::new(dep, arr))
            .collect();
        Profile::from_unreduced(linked, period)
    }

    /// `true` iff `self` is everywhere at least as good as `other`: for
    /// every departure time the arrival via `self` is `≤` the arrival via
    /// `other`. Checking at `other`'s connection points is exact: both
    /// functions are step functions whose arrivals increase with the
    /// departure, and the cyclic-fixup invariant
    /// (`last.arr < first.arr + period`) bounds the wrap-around, so the
    /// maximum of `self` over each constant piece of `other` lands on one
    /// of `other`'s points. The dominance test behind the gateway's
    /// candidate pruning (and [`Profile::merge`]'s fast path).
    pub fn dominates(&self, other: &Profile, period: Period) -> bool {
        other.points.iter().all(|p| self.eval_arr_local(p.dep, period) <= p.arr)
    }

    /// Minimum arrival over all points ([`INFINITY`] if empty) — the queue
    /// key of the label-correcting baseline.
    pub fn min_arr(&self) -> Time {
        self.points.iter().map(|p| p.arr).min().unwrap_or(INFINITY)
    }

    /// Longest travel duration over all points (`Dur::ZERO` if empty) —
    /// on a hop's travel-time function, an upper bound on the travel
    /// component of one relaxation, which sizes the kernel's bucket ring.
    pub fn max_dur(&self) -> Dur {
        self.points.iter().map(|p| p.dur()).max().unwrap_or(Dur::ZERO)
    }

    /// Heap + inline memory footprint in bytes (for the space column of
    /// Table 2).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.points.capacity() * std::mem::size_of::<ProfilePoint>()
    }
}

/// The connection reduction of [`Profile::from_unreduced`], in place: on
/// return `points` holds the reduced profile of what it held.
fn reduce(points: &mut Vec<ProfilePoint>, period: Period) {
    points.retain(|p| !p.arr.is_infinite());
    for p in points.iter() {
        assert!(period.contains(p.dep), "profile departure {} not period-local", p.dep);
        debug_assert!(p.arr >= p.dep);
    }
    points.sort_unstable_by_key(|p| (p.dep, p.arr));
    points.dedup_by_key(|p| p.dep); // earliest arrival per departure
                                    // Backward dominance scan, compacting the survivors (sorted) to the tail.
    let mut min_arr = INFINITY;
    let mut keep = points.len();
    for i in (0..points.len()).rev() {
        if points[i].arr < min_arr {
            min_arr = points[i].arr;
            keep -= 1;
            points[keep] = points[i];
        }
    }
    points.drain(..keep);
    // Cyclic fix-up: arrivals now increase, so the survivors are a prefix.
    if let Some(first) = points.first() {
        let threshold = first.arr + Dur(period.len());
        points.truncate(points.partition_point(|p| p.arr < threshold));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(dep_min: u32, arr_min: u32) -> ProfilePoint {
        ProfilePoint::new(Time::hm(0, dep_min), Time::hm(0, arr_min))
    }

    const P: Period = Period::DAY;

    #[test]
    fn reduction_drops_dominated_points() {
        // Leaving at 00:10 arrives 01:00; leaving at 00:20 arrives 00:50:
        // the 00:10 departure is dominated (wait for the 00:20 one).
        let prof = Profile::from_unreduced(vec![pt(10, 60), pt(20, 50)], P);
        assert_eq!(prof.points(), &[pt(20, 50)]);
        assert!(prof.is_reduced(P));
    }

    #[test]
    fn reduction_deletes_equal_arrivals() {
        // Equal arrival: the paper deletes the earlier departure (τarr_j ≥ τarr_min).
        let prof = Profile::from_unreduced(vec![pt(10, 50), pt(20, 50)], P);
        assert_eq!(prof.points(), &[pt(20, 50)]);
    }

    #[test]
    fn reduction_drops_unreachable_points() {
        let prof = Profile::from_unreduced(
            vec![pt(10, 40), ProfilePoint { dep: Time::hm(0, 20), arr: INFINITY }],
            P,
        );
        assert_eq!(prof.points(), &[pt(10, 40)]);
    }

    #[test]
    #[should_panic(expected = "not period-local")]
    fn non_local_departure_rejected() {
        let _ =
            Profile::from_unreduced(vec![ProfilePoint::new(Time::hm(25, 0), Time::hm(25, 5))], P);
    }

    #[test]
    fn scratch_reduction_matches_owned_reduction() {
        // (raw points, reduced points)
        let cases: &[(Vec<ProfilePoint>, Vec<ProfilePoint>)] = &[
            (vec![], vec![]),
            (vec![pt(10, 60), pt(20, 50)], vec![pt(20, 50)]),
            (vec![pt(10, 50), pt(20, 50)], vec![pt(20, 50)]),
            (
                vec![pt(10, 40), ProfilePoint { dep: Time::hm(0, 20), arr: INFINITY }],
                vec![pt(10, 40)],
            ),
            // Equal departures keep the earliest arrival.
            (vec![pt(10, 40), pt(10, 30)], vec![pt(10, 30)]),
            (
                vec![pt(30, 45), pt(10, 20), pt(20, 35), pt(40, 41)],
                vec![pt(10, 20), pt(20, 35), pt(40, 41)],
            ),
            // Cyclic fix-up: leaving at 23:00 arrives after tomorrow's 00:10
            // departure does.
            (
                vec![pt(10, 30), ProfilePoint::new(Time::hm(23, 0), Time::hm(24, 40))],
                vec![pt(10, 30)],
            ),
        ];
        let mut scratch = Vec::new();
        for (raw, reduced) in cases {
            scratch.extend_from_slice(raw);
            let got = Profile::from_unreduced_in(&mut scratch, P);
            assert_eq!(got.points(), reduced.as_slice());
            assert_eq!(got, Profile::from_unreduced(raw.clone(), P));
            assert!(scratch.is_empty(), "scratch not cleared");
        }
    }

    #[test]
    fn eval_matches_next_useful_departure() {
        let prof = Profile::from_unreduced(vec![pt(10, 30), pt(40, 55)], P);
        // Before 00:10: take the first connection.
        assert_eq!(prof.eval_arr(Time::hm(0, 5), P), Time::hm(0, 30));
        // Between the two: take the second.
        assert_eq!(prof.eval_arr(Time::hm(0, 15), P), Time::hm(0, 55));
        // After the last: wrap to tomorrow's first.
        assert_eq!(prof.eval_arr(Time::hm(0, 45), P), Time::hm(24, 30));
    }

    #[test]
    fn eval_on_empty_is_infinite() {
        assert_eq!(Profile::EMPTY.eval_arr(Time::hm(9, 0), P), INFINITY);
        assert_eq!(Profile::EMPTY.eval_dur(Time::hm(9, 0), P), Dur::INFINITE);
    }

    #[test]
    fn merge_takes_pointwise_minimum() {
        let mut a = Profile::from_unreduced(vec![pt(10, 30), pt(40, 70)], P);
        let b = Profile::from_unreduced(vec![pt(20, 25), pt(40, 60)], P);
        assert!(a.merge(&b, P));
        // 00:10→00:30 is dominated by 00:20→00:25.
        assert_eq!(a.points(), &[pt(20, 25), pt(40, 60)]);
        // Merging again changes nothing.
        let before = a.clone();
        assert!(!a.merge(&b, P));
        assert_eq!(a, before);
    }

    #[test]
    fn merge_with_empty_is_noop() {
        let mut a = Profile::from_unreduced(vec![pt(10, 30)], P);
        assert!(!a.merge(&Profile::EMPTY, P));
        let mut e = Profile::EMPTY.clone();
        assert!(e.merge(&a, P));
        assert_eq!(e, a);
    }

    #[test]
    fn link_const_shifts_arrivals() {
        let a = Profile::from_unreduced(vec![pt(10, 30), pt(40, 60)], P);
        let b = a.link_const(Dur::minutes(5));
        assert_eq!(b.points(), &[pt(10, 35), pt(40, 65)]);
        assert!(b.is_reduced(P));
    }

    #[test]
    fn link_profile_composes_legs_through_a_junction() {
        // Leg 1 arrives at the junction at 00:30 / 01:00; onward trains
        // leave at 00:40 and 01:20 (5 min transfer at the junction).
        let first = Profile::from_unreduced(vec![pt(10, 30), pt(50, 60)], P);
        let onward = Profile::from_unreduced(vec![pt(40, 55), pt(80, 100)], P);
        let stitched = first.link_profile(&onward, Dur::minutes(5), P);
        // dep 00:10: at junction 00:30, ready 00:35 → 00:40 train → 00:55.
        // dep 00:50: at junction 01:00, ready 01:05 → 01:20 train → 01:40.
        assert_eq!(stitched.points(), &[pt(10, 55), pt(50, 100)]);
        assert!(stitched.is_reduced(P));
    }

    #[test]
    fn link_plf_composes_travel_times() {
        // With no buffer the onward profile is a hop's travel-time
        // function (PLF): edge served at 00:35 taking 10 min.
        let a = Profile::from_unreduced(vec![pt(10, 30)], P);
        let hop = Profile::from_unreduced(vec![pt(35, 45)], P);
        assert_eq!(a.link_profile(&hop, Dur::ZERO, P).points(), &[pt(10, 45)]);
    }

    #[test]
    fn link_profile_wraps_to_the_next_period() {
        // Arriving after the last onward departure waits for tomorrow's.
        let first = Profile::from_unreduced(vec![pt(10, 90)], P);
        let onward = Profile::from_unreduced(vec![pt(40, 55)], P);
        let stitched = first.link_profile(&onward, Dur::minutes(5), P);
        assert_eq!(stitched.points(), &[ProfilePoint::new(Time::hm(0, 10), Time::hm(24, 55))]);
    }

    #[test]
    fn link_profile_with_empty_leg_is_unreachable() {
        let first = Profile::from_unreduced(vec![pt(10, 30)], P);
        assert!(first.link_profile(&Profile::EMPTY, Dur::ZERO, P).is_empty());
        assert!(Profile::EMPTY.link_profile(&first, Dur::ZERO, P).is_empty());
    }

    #[test]
    fn dominates_is_a_pointwise_comparison() {
        let fast = Profile::from_unreduced(vec![pt(10, 20), pt(40, 50)], P);
        let slow = Profile::from_unreduced(vec![pt(10, 25), pt(40, 55)], P);
        assert!(fast.dominates(&slow, P));
        assert!(!slow.dominates(&fast, P));
        assert!(fast.dominates(&fast, P), "dominance is reflexive");
        // Incomparable: each is better somewhere. `few` wins for late
        // departures (00:30 → 00:35 vs waiting for tomorrow's 00:20 train).
        let few = Profile::from_unreduced(vec![pt(30, 35)], P);
        assert!(!fast.dominates(&few, P));
        assert!(!few.dominates(&fast, P));
        // Everything dominates the unreachable profile; nothing non-empty
        // is dominated by it.
        assert!(fast.dominates(&Profile::EMPTY, P));
        assert!(!Profile::EMPTY.dominates(&fast, P));
        assert!(Profile::EMPTY.dominates(&Profile::EMPTY, P));
    }

    #[test]
    fn dominates_agrees_with_pointwise_evaluation() {
        // Extra points can only help: `a` adds a useful mid-day train to
        // `b`'s single connection, so `a` dominates `b` but not vice versa
        // (at τ = 00:11, `a` arrives 15:00 while `b` waits for tomorrow's
        // 00:20 — a violation at a point of `a`, not of `b`).
        let a = Profile::from_unreduced(vec![pt(10, 20), pt(200, 900)], P);
        let b = Profile::from_unreduced(vec![pt(10, 20)], P);
        assert!(a.dominates(&b, P));
        assert!(!b.dominates(&a, P));
        // Exhaustive agreement with minute-by-minute evaluation.
        for (f, g) in [(&a, &b), (&b, &a)] {
            let want = (0..24 * 60)
                .all(|m| f.eval_arr(Time::hm(0, m), P) <= g.eval_arr(Time::hm(0, m), P));
            assert_eq!(f.dominates(g, P), want);
        }
    }

    #[test]
    fn min_arr_and_dur() {
        let a = Profile::from_unreduced(vec![pt(10, 30), pt(40, 50)], P);
        assert_eq!(a.min_arr(), Time::hm(0, 30));
        assert_eq!(a.max_dur(), Dur::minutes(20));
        assert_eq!(Profile::EMPTY.max_dur(), Dur::ZERO);
    }
}
