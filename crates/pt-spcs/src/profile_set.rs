//! The result of a one-to-all profile search.

use pt_core::{Period, Profile, StationId, Time};

/// Reduced arrival profiles `dist(S, T, ·)` from one source station to
/// every station of the network.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSet {
    source: StationId,
    period: Period,
    profiles: Vec<Profile>,
}

impl ProfileSet {
    /// Bundles profiles indexed by station id.
    pub fn new(source: StationId, period: Period, profiles: Vec<Profile>) -> Self {
        debug_assert!(profiles.iter().all(|p| p.is_reduced(period)));
        ProfileSet { source, period, profiles }
    }

    /// The source station `S`.
    #[inline]
    pub fn source(&self) -> StationId {
        self.source
    }

    /// The timetable period.
    #[inline]
    pub fn period(&self) -> Period {
        self.period
    }

    /// The reduced profile `dist(S, T, ·)`; empty iff `T` is unreachable.
    ///
    /// Convention: the profile of the *source itself* contains one point per
    /// useful departure (`dep == arr`), not the mathematical identity
    /// `dist(S, S, τ) = τ` — evaluating it between departures reports the
    /// next departure event rather than 0 travel time. Route planning never
    /// queries the source, so the searches keep this cheaper form.
    #[inline]
    pub fn profile(&self, t: StationId) -> &Profile {
        &self.profiles[t.idx()]
    }

    /// All profiles, indexed by station id.
    #[inline]
    pub fn profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// Earliest arrival at `t` when departing the source at `dep` — one
    /// evaluation of the profile function.
    pub fn earliest_arrival(&self, t: StationId, dep: Time) -> Time {
        self.profiles[t.idx()].eval_arr(dep, self.period)
    }

    /// Number of reachable stations (non-empty profiles).
    pub fn reachable(&self) -> usize {
        self.profiles.iter().filter(|p| !p.is_empty()).count()
    }
}
