//! Time-of-day headway profiles.
//!
//! The paper notes (§3.2) that "the connections in `conn(S)` are not
//! distributed uniformly over the day due to rush hours and operational
//! breaks at night" — the very reason the *equal time-slots* partition is
//! unbalanced. The generators reproduce that structure with piecewise
//! constant headway bands.

use pt_core::{Dur, Period, Time};

/// One service band: between `start` (inclusive) and `end` (exclusive),
/// trips depart every `headway` seconds; `None` means no service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// Start of the band (inclusive).
    pub start: Time,
    /// End of the band (exclusive).
    pub end: Time,
    /// Departure interval within the band; `None` means no service.
    pub headway: Option<Dur>,
}

/// A piecewise-constant headway profile covering a whole period.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeadwayProfile {
    bands: Vec<Band>,
}

impl HeadwayProfile {
    /// Builds a profile from bands; they must be contiguous, start at 0 and
    /// have positive headways.
    pub fn new(bands: Vec<Band>, period: Period) -> Self {
        assert!(!bands.is_empty(), "profile needs at least one band");
        assert_eq!(bands[0].start, Time(0), "first band must start at 0");
        for w in bands.windows(2) {
            assert_eq!(w[0].end, w[1].start, "bands must be contiguous");
        }
        assert_eq!(
            bands.last().unwrap().end,
            Time(period.len()),
            "bands must cover the whole period"
        );
        for b in &bands {
            if let Some(h) = b.headway {
                assert!(h > Dur::ZERO, "headway must be positive");
            }
        }
        HeadwayProfile { bands }
    }

    /// Urban bus profile: rush-hour peaks morning and evening, 30-minute
    /// night service and an operational break between 01:00 and 04:30.
    pub fn urban(period: Period) -> Self {
        Self::from_hours(
            &[
                (0.0, 1.0, Some(30)),
                (1.0, 4.5, None),
                (4.5, 7.0, Some(15)),
                (7.0, 9.0, Some(5)),
                (9.0, 16.0, Some(10)),
                (16.0, 19.0, Some(6)),
                (19.0, 23.0, Some(15)),
                (23.0, 24.0, Some(30)),
            ],
            period,
        )
    }

    /// A sparser feeder-bus profile (roughly half the urban frequency).
    pub fn urban_feeder(period: Period) -> Self {
        Self::from_hours(
            &[
                (0.0, 1.0, Some(60)),
                (1.0, 5.0, None),
                (5.0, 7.0, Some(30)),
                (7.0, 9.0, Some(10)),
                (9.0, 16.0, Some(20)),
                (16.0, 19.0, Some(12)),
                (19.0, 23.0, Some(30)),
                (23.0, 24.0, Some(60)),
            ],
            period,
        )
    }

    /// Regional rail: half-hourly peak, hourly off-peak, night break.
    pub fn rail_regional(period: Period) -> Self {
        Self::from_hours(
            &[
                (0.0, 1.0, Some(60)),
                (1.0, 5.0, None),
                (5.0, 7.0, Some(60)),
                (7.0, 9.0, Some(30)),
                (9.0, 16.0, Some(60)),
                (16.0, 19.0, Some(30)),
                (19.0, 24.0, Some(60)),
            ],
            period,
        )
    }

    /// Intercity rail: every one to two hours, small night gap.
    pub fn rail_intercity(period: Period) -> Self {
        Self::from_hours(
            &[
                (0.0, 5.0, None),
                (5.0, 8.0, Some(120)),
                (8.0, 20.0, Some(60)),
                (20.0, 23.0, Some(120)),
                (23.0, 24.0, None),
            ],
            period,
        )
    }

    /// Sparse international rail: a handful of departures per day.
    pub fn rail_sparse(period: Period) -> Self {
        Self::from_hours(&[(0.0, 6.0, None), (6.0, 22.0, Some(240)), (22.0, 24.0, None)], period)
    }

    /// Builds a profile from `(start_hour, end_hour, headway_minutes)`
    /// triples scaled to the period (24 "hours" always span the period).
    pub fn from_hours(bands: &[(f64, f64, Option<u32>)], period: Period) -> Self {
        let scale = period.len() as f64 / 24.0;
        let t = |h: f64| Time((h * scale).round() as u32);
        Self::new(
            bands
                .iter()
                .map(|&(s, e, h)| Band {
                    start: t(s),
                    end: t(e),
                    headway: h
                        .map(|m| Dur(((m * 60) as f64 * scale / 3600.0).round().max(1.0) as u32)),
                })
                .collect(),
            period,
        )
    }

    /// The departure times generated by this profile, shifted by `offset`
    /// within each band (so different routes are out of phase).
    pub fn departures(&self, offset: Dur) -> Vec<Time> {
        let mut deps = Vec::with_capacity(self.count_estimate());
        for b in &self.bands {
            let Some(h) = b.headway else { continue };
            let mut t = b.start + Dur(offset.secs() % h.secs());
            while t < b.end {
                deps.push(t);
                t += h;
            }
        }
        deps
    }

    /// Upper estimate of departures per period.
    fn count_estimate(&self) -> usize {
        self.bands
            .iter()
            .map(|b| match b.headway {
                Some(h) => ((b.end - b.start).secs() / h.secs()) as usize + 1,
                None => 0,
            })
            .sum()
    }

    /// The largest finite headway (used to bound phase offsets).
    pub fn max_headway(&self) -> Dur {
        self.bands.iter().filter_map(|b| b.headway).max().unwrap_or(Dur(1))
    }

    /// The bands of the profile.
    pub fn bands(&self) -> &[Band] {
        &self.bands
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urban_profile_has_night_break() {
        let p = HeadwayProfile::urban(Period::DAY);
        let deps = p.departures(Dur::ZERO);
        assert!(!deps.is_empty());
        // No departure between 01:00 and 04:30.
        assert!(!deps.iter().any(|d| *d >= Time::hm(1, 0) && *d < Time::hm(4, 30)));
        // Departures are strictly increasing and period-local.
        assert!(deps.windows(2).all(|w| w[0] < w[1]));
        assert!(deps.iter().all(|d| Period::DAY.contains(*d)));
    }

    #[test]
    fn rush_hour_is_denser_than_off_peak() {
        let p = HeadwayProfile::urban(Period::DAY);
        let deps = p.departures(Dur::ZERO);
        let count = |lo: Time, hi: Time| deps.iter().filter(|d| **d >= lo && **d < hi).count();
        let rush = count(Time::hm(7, 0), Time::hm(9, 0));
        let off = count(Time::hm(9, 0), Time::hm(11, 0));
        assert!(rush > off, "rush={rush} off={off}");
    }

    #[test]
    fn offset_shifts_phase_within_band() {
        let p = HeadwayProfile::rail_intercity(Period::DAY);
        let a = p.departures(Dur::ZERO);
        let b = p.departures(Dur::minutes(17));
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn scaled_period_still_covers() {
        let period = Period::new(7200); // 2-hour toy period
        let p = HeadwayProfile::urban(period);
        let deps = p.departures(Dur::ZERO);
        assert!(!deps.is_empty());
        assert!(deps.iter().all(|d| period.contains(*d)));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gap_in_bands_rejected() {
        let _ = HeadwayProfile::new(
            vec![
                Band { start: Time(0), end: Time(100), headway: Some(Dur(10)) },
                Band { start: Time(200), end: Time(86400), headway: None },
            ],
            Period::DAY,
        );
    }
}
